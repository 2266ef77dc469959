#include "overlay/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <unordered_map>

#include "core/utility.h"
#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::overlay {

GroupCastBootstrap::GroupCastBootstrap(const PeerPopulation& population,
                                       OverlayGraph& graph,
                                       HostCacheServer& host_cache,
                                       BootstrapOptions options,
                                       util::Rng& rng)
    : population_(&population),
      graph_(&graph),
      host_cache_(&host_cache),
      options_(options),
      rng_(rng.split()),
      joined_(population.size(), 0) {}

std::size_t GroupCastBootstrap::target_degree(double capacity) const {
  GC_REQUIRE(capacity > 0.0);
  const double raw = kDegreeBase * std::pow(capacity, kDegreeExponent);
  return std::clamp(static_cast<std::size_t>(std::ceil(raw)), kDegreeMin,
                    kDegreeMax);
}

double GroupCastBootstrap::back_link_probability(
    PeerId k, PeerId i, OverlayGraph::NeighborSpan nbrs) const {
  if (nbrs.empty()) return 1.0;  // a lonely peer takes anyone
  const double n = static_cast<double>(nbrs.size());
  const double ck = population_->info(k).capacity;
  const double ci = population_->info(i).capacity;
  const double d_ik = population_->coord_distance_ms(i, k);

  std::size_t nbrs_below_k = 0;   // rc_k: |{j in Nbr(k) : C_j <= C_k}|
  std::size_t nbrs_below_i = 0;   // rc_i: |{j in Nbr(k) : C_j <= C_i}|
  std::size_t nbrs_farther = 0;   // rd_i: |{j in Nbr(k) : D(j,k) >= D(i,k)}|
  for (const PeerId j : nbrs) {
    const double cj = population_->info(j).capacity;
    if (cj <= ck) ++nbrs_below_k;
    if (cj <= ci) ++nbrs_below_i;
    if (population_->coord_distance_ms(j, k) >= d_ik) ++nbrs_farther;
  }
  const double rck = static_cast<double>(nbrs_below_k) / n;
  const double rci = static_cast<double>(nbrs_below_i) / n;
  const double rdi = static_cast<double>(nbrs_farther) / n;
  return rck * rck * rci + (1.0 - rck * rck) * rdi;
}

namespace {

/// Bytes of the per-join arena: the largest candidate list of a 20k-peer
/// build (about 200 peers) needs under a quarter of it; a larger one
/// spills to the heap.
constexpr std::size_t kJoinArenaBytes = 32 * 1024;

using FrequencyMap = std::pmr::unordered_map<PeerId, std::size_t>;

/// Candidate discovery for join(): probe the bootstrap peers, merge their
/// neighbour lists into LC with occurrence frequencies.  The map's hash and
/// bucket policy are std::unordered_map's, so its iteration order is too.
FrequencyMap gather_candidates(const OverlayGraph& graph, PeerId self,
                               const std::vector<PeerId>& bootstrap_peers,
                               JoinStats& stats,
                               std::pmr::memory_resource* arena) {
  FrequencyMap frequency(arena);
  for (const PeerId target : bootstrap_peers) {
    stats.probe_messages += 2;  // probe + response
    ++frequency[target];        // the bootstrap peer is itself a candidate
    for (const PeerId nbr : graph.neighbors(target)) {
      if (nbr != self) ++frequency[nbr];
    }
  }
  frequency.erase(self);
  stats.candidates_seen = frequency.size();
  return frequency;
}

}  // namespace

JoinStats GroupCastBootstrap::join(PeerId peer) {
  GC_REQUIRE(peer < population_->size());
  GC_REQUIRE_MSG(!joined_[peer], "peer is already a member of the overlay");
  JoinStats stats;

  // Step 1: bootstrap candidates from the host cache.
  const auto bootstrap_peers = host_cache_->bootstrap_candidates(peer);

  // Step 2: probe and compile LC_i.  The candidate structures live in an
  // arena over a buffer kept between joins, so they take nothing from the
  // heap.
  if (arena_.empty()) arena_.resize(kJoinArenaBytes);
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
  const auto frequency =
      gather_candidates(*graph_, peer, bootstrap_peers, stats, &arena);

  if (!frequency.empty()) {
    // Step 3: utility scores via Eq. 6 (capacity := occurrence frequency).
    std::pmr::vector<PeerId> candidates(&arena);
    std::pmr::vector<core::Candidate> scored(&arena);
    candidates.reserve(frequency.size());
    scored.reserve(frequency.size());
    for (const auto& [id, freq] : frequency) {
      candidates.push_back(id);
      scored.push_back(core::Candidate{
          static_cast<double>(freq),
          population_->coord_distance_ms(peer, id)});
    }
    const double r_i = core::clamp_resource_level(
        options_.pinned_resource_level >= 0.0
            ? options_.pinned_resource_level
            : population_->sampled_resource_level(
                  peer, PeerPopulation::kResourceSample, rng_));
    const auto prefs = core::selection_preferences(r_i, scored);

    const std::size_t want = target_degree(population_->info(peer).capacity);
    const auto picks =
        core::weighted_sample_without_replacement(prefs, want, rng_);

    // Step 4: out links + back-link negotiation.
    for (const std::size_t idx : picks) {
      const PeerId chosen = candidates[idx];
      if (graph_->add_edge(peer, chosen)) ++stats.out_links_created;
      ++stats.back_link_requests;
      const double pb =
          back_link_probability(chosen, peer, graph_->neighbors(chosen));
      const bool accepted =
          rng_.chance(pb) || rng_.chance(kFallbackBackLinkProb);
      if (accepted && graph_->add_edge(chosen, peer)) {
        ++stats.back_links_accepted;
      }
    }
  }

  joined_[peer] = 1;
  host_cache_->register_peer(peer);
  joins_.push_back({peer, static_cast<std::uint32_t>(stats.out_links_created)});
  return stats;
}

void emit_joins(std::span<const JoinRecord> joins) {
  auto& counters = trace::counters();
  auto& tracer = trace::tracer();
  if (!counters.enabled() && !tracer.enabled()) return;
  for (const JoinRecord& join : joins) {
    counters.incr(join.peer, trace::CounterId::kJoins);
    tracer.emit(0, trace::EventKind::kPeerJoin, join.peer, kNoPeer,
                join.out_links);
  }
}

}  // namespace groupcast::overlay
