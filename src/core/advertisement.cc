#include "core/advertisement.h"

#include <algorithm>
#include <cmath>

#include "core/utility.h"
#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

const char* to_string(AnnouncementScheme scheme) {
  switch (scheme) {
    case AnnouncementScheme::kNssa:
      return "NSSA";
    case AnnouncementScheme::kSsaRandom:
      return "SSA-random";
    case AnnouncementScheme::kSsaUtility:
      return "SSA";
  }
  return "?";
}

double AdvertisementState::receiving_rate() const {
  if (parent.empty()) return 0.0;
  std::size_t received_count = 0;
  for (const auto p : parent) {
    if (p != overlay::kNoPeer) ++received_count;
  }
  return static_cast<double>(received_count) /
         static_cast<double>(parent.size());
}

AdvertisementEngine::AdvertisementEngine(
    sim::Simulator& simulator, const overlay::PeerPopulation& population,
    const overlay::OverlayGraph& graph, AdvertisementOptions options,
    util::Rng& rng)
    : simulator_(&simulator),
      population_(&population),
      graph_(&graph),
      options_(options),
      rng_(rng.split()),
      resource_level_(population.size(), 0.5),
      resource_level_known_(population.size(), 0),
      neighbor_cache_(population.size()) {
  GC_REQUIRE(options_.forward_fraction > 0.0 &&
             options_.forward_fraction <= 1.0);
  GC_REQUIRE(options_.ttl >= 1);
}

std::vector<overlay::PeerId> AdvertisementEngine::select_targets(
    overlay::PeerId from, const std::vector<overlay::PeerId>& neighbors,
    overlay::PeerId exclude) {
  std::vector<overlay::PeerId> pool;
  pool.reserve(neighbors.size());
  for (const auto n : neighbors) {
    if (n != exclude) pool.push_back(n);
  }
  if (pool.empty()) return pool;
  if (options_.scheme == AnnouncementScheme::kNssa) return pool;

  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.forward_fraction *
                       static_cast<double>(pool.size()))));
  if (want >= pool.size()) return pool;

  if (options_.scheme == AnnouncementScheme::kSsaRandom) {
    const auto idx = rng_.sample_indices(pool.size(), want);
    std::vector<overlay::PeerId> out;
    out.reserve(want);
    for (const auto i : idx) out.push_back(pool[i]);
    return out;
  }

  // kSsaUtility: weights proportional to the utility values of the
  // neighbours as seen by the forwarding peer.
  if (!resource_level_known_[from]) {
    resource_level_[from] = clamp_resource_level(
        options_.pinned_resource_level >= 0.0
            ? options_.pinned_resource_level
            : population_->sampled_resource_level(
                  from, options_.resource_sample, rng_));
    resource_level_known_[from] = 1;
  }
  std::vector<Candidate> candidates;
  candidates.reserve(pool.size());
  for (const auto n : pool) {
    candidates.push_back(Candidate{population_->info(n).capacity,
                                   population_->coord_distance_ms(from, n)});
  }
  const auto prefs = selection_preferences(resource_level_[from], candidates);
  const auto idx = weighted_sample_without_replacement(prefs, want, rng_);
  std::vector<overlay::PeerId> out;
  out.reserve(idx.size());
  for (const auto i : idx) out.push_back(pool[i]);
  return out;
}

std::vector<overlay::PeerId> AdvertisementEngine::select_targets_cached(
    overlay::PeerId from, overlay::PeerId exclude) {
  NeighborCacheEntry& entry = neighbor_cache_[from];
  const auto generation = graph_->neighbor_generation(from);
  if (!entry.valid || entry.generation != generation) {
    entry.valid = true;
    entry.candidates_valid = false;
    entry.generation = generation;
    entry.neighbors = graph_->neighbors(from);
    entry.candidates.clear();
  }

  std::vector<overlay::PeerId> pool;
  pool.reserve(entry.neighbors.size());
  for (const auto n : entry.neighbors) {
    if (n != exclude) pool.push_back(n);
  }
  if (pool.empty()) return pool;
  if (options_.scheme == AnnouncementScheme::kNssa) return pool;

  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.forward_fraction *
                       static_cast<double>(pool.size()))));
  if (want >= pool.size()) return pool;

  if (options_.scheme == AnnouncementScheme::kSsaRandom) {
    const auto idx = rng_.sample_indices(pool.size(), want);
    std::vector<overlay::PeerId> out;
    out.reserve(want);
    for (const auto i : idx) out.push_back(pool[i]);
    return out;
  }

  // kSsaUtility.  The resource-level memo goes first, exactly as in
  // select_targets, so the RNG stream stays aligned with the uncached
  // path; the candidate rows below draw no RNG.
  if (!resource_level_known_[from]) {
    resource_level_[from] = clamp_resource_level(
        options_.pinned_resource_level >= 0.0
            ? options_.pinned_resource_level
            : population_->sampled_resource_level(
                  from, options_.resource_sample, rng_));
    resource_level_known_[from] = 1;
  }
  if (!entry.candidates_valid) {
    trace::counters().incr(from, trace::CounterId::kUtilityCacheMisses);
    entry.candidates.reserve(entry.neighbors.size());
    for (const auto n : entry.neighbors) {
      entry.candidates.push_back(
          Candidate{population_->info(n).capacity,
                    population_->coord_distance_ms(from, n)});
    }
    entry.candidates_valid = true;
  } else {
    trace::counters().incr(from, trace::CounterId::kUtilityCacheHits);
  }
  // Pool-aligned rows: skip the excluded neighbour in lockstep, giving
  // the exact vector select_targets would have built.
  std::vector<Candidate> candidates;
  candidates.reserve(pool.size());
  for (std::size_t i = 0; i < entry.neighbors.size(); ++i) {
    if (entry.neighbors[i] != exclude) {
      candidates.push_back(entry.candidates[i]);
    }
  }
  const auto prefs = selection_preferences(resource_level_[from], candidates);
  const auto idx = weighted_sample_without_replacement(prefs, want, rng_);
  std::vector<overlay::PeerId> out;
  out.reserve(idx.size());
  for (const auto i : idx) out.push_back(pool[i]);
  return out;
}

AdvertisementState AdvertisementEngine::announce(overlay::PeerId rendezvous,
                                                 MessageStats* stats) {
  GC_REQUIRE(rendezvous < population_->size());

  AdvertisementState state;
  state.rendezvous = rendezvous;
  state.scheme = options_.scheme;
  state.parent.assign(population_->size(), overlay::kNoPeer);
  state.arrival.assign(population_->size(), sim::SimTime::zero());

  // Recursive sender closure: forwards an advertisement copy from `from`
  // to each selected neighbour; receipt handling is scheduled at the true
  // unicast latency.
  struct Context {
    AdvertisementEngine* engine;
    AdvertisementState* state;
    MessageStats* stats;
    trace::Tracer* tracer;          // hoisted: keeps the hot path to one
    trace::CounterRegistry* counters;  // null-check / one-branch each
  };
  auto context = std::make_shared<Context>(Context{
      this, &state, stats, &trace::tracer(), &trace::counters()});

  // `handle` processes one delivered advertisement copy.
  std::function<void(overlay::PeerId, overlay::PeerId, std::size_t)> handle =
      [context, &handle](overlay::PeerId at, overlay::PeerId from,
                         std::size_t ttl) {
        AdvertisementState& st = *context->state;
        const auto now_us = context->engine->simulator_->now().as_micros();
        if (st.parent[at] != overlay::kNoPeer) {  // duplicate: drop
          context->counters->incr(at, trace::CounterId::kMessagesDropped);
          context->tracer->emit(
              now_us, trace::EventKind::kMessageDropped, at, from,
              static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
          return;
        }
        st.parent[at] = from;
        st.arrival[at] = context->engine->simulator_->now();
        context->counters->incr(at, trace::CounterId::kMessagesReceived);
        if (ttl == 0) return;
        const auto targets =
            context->engine->select_targets_cached(at, from);
        for (const auto to : targets) {
          ++st.messages;
          if (context->stats != nullptr) {
            context->stats->count(MessageKind::kAdvertisement);
          }
          context->counters->incr(at, trace::CounterId::kMessagesSent);
          context->counters->incr(at, trace::CounterId::kAdvertsForwarded);
          context->tracer->emit(now_us, trace::EventKind::kAdvertForwarded,
                                at, to, ttl);
          const auto latency = sim::SimTime::millis(
              context->engine->population_->latency_ms(at, to));
          context->engine->simulator_->schedule(
              latency, [&handle, to, at, ttl] { handle(to, at, ttl - 1); });
        }
      };

  // Kick off from the rendezvous point (parent[rp] = rp marks receipt).
  simulator_->schedule(sim::SimTime::zero(), [&handle, rendezvous, this] {
    handle(rendezvous, rendezvous, options_.ttl);
  });
  simulator_->run();
  return state;
}

}  // namespace groupcast::core
