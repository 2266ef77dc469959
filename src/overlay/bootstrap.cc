#include "overlay/bootstrap.h"

#include <algorithm>
#include <cmath>
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

GroupCastBootstrap::GroupCastBootstrap(const GroupCastBootstrap& other,
                                       OverlayGraph& graph,
                                       HostCacheServer& host_cache)
    : population_(other.population_),
      graph_(&graph),
      host_cache_(&host_cache),
      options_(other.options_),
      rng_(other.rng_),
      joined_(other.joined_) {}

std::size_t GroupCastBootstrap::target_degree(double capacity) const {
  GC_REQUIRE(capacity > 0.0);
  const double raw = kDegreeBase * std::pow(capacity, kDegreeExponent);
  return std::clamp(static_cast<std::size_t>(std::ceil(raw)), kDegreeMin,
                    kDegreeMax);
}

double GroupCastBootstrap::back_link_probability(
    PeerId k, PeerId i, const std::vector<PeerId>& nbrs) const {
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
/// Candidate discovery for join(): probe the bootstrap peers, merge their
/// neighbour lists into LC with occurrence frequencies.
std::unordered_map<PeerId, std::size_t> gather_candidates(
    const OverlayGraph& graph, PeerId self,
    const std::vector<PeerId>& bootstrap_peers, JoinStats& stats) {
  std::unordered_map<PeerId, std::size_t> frequency;
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

  // Step 2: probe and compile LC_i.
  const auto frequency =
      gather_candidates(*graph_, peer, bootstrap_peers, stats);

  if (!frequency.empty()) {
    // Step 3: utility scores via Eq. 6 (capacity := occurrence frequency).
    std::vector<PeerId> candidates;
    std::vector<core::Candidate> scored;
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
      const auto nbrs_of_chosen = graph_->neighbors(chosen);
      const double pb = back_link_probability(chosen, peer, nbrs_of_chosen);
      const bool accepted =
          rng_.chance(pb) || rng_.chance(kFallbackBackLinkProb);
      if (accepted && graph_->add_edge(chosen, peer)) {
        ++stats.back_links_accepted;
      }
    }
  }

  joined_[peer] = 1;
  host_cache_->register_peer(peer);
  trace::counters().incr(peer, trace::CounterId::kJoins);
  trace::tracer().emit(0, trace::EventKind::kPeerJoin, peer, kNoPeer,
                       stats.out_links_created);
  return stats;
}

}  // namespace groupcast::overlay
