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

std::vector<overlay::PeerId> select_forward_targets(
    const AdvertisementOptions& options,
    const overlay::PeerPopulation& population, overlay::PeerId from,
    overlay::OverlayGraph::NeighborSpan neighbors, overlay::PeerId exclude,
    std::optional<double>& resource_level, util::Rng& rng) {
  std::vector<overlay::PeerId> pool;
  pool.reserve(neighbors.size());
  for (const auto n : neighbors) {
    if (n != exclude) pool.push_back(n);
  }
  if (pool.empty() || options.scheme == AnnouncementScheme::kNssa) {
    return pool;
  }

  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             options.forward_fraction * static_cast<double>(pool.size()))));
  if (want >= pool.size()) return pool;

  std::vector<std::size_t> idx;
  if (options.scheme == AnnouncementScheme::kSsaRandom) {
    idx = rng.sample_indices(pool.size(), want);
  } else {
    // kSsaUtility: weights proportional to the utility values of the
    // neighbours as seen by the forwarding peer.
    if (!resource_level) {
      resource_level = clamp_resource_level(
          options.pinned_resource_level >= 0.0
              ? options.pinned_resource_level
              : population.sampled_resource_level(
                    from, overlay::PeerPopulation::kResourceSample, rng));
    }
    std::vector<Candidate> candidates;
    candidates.reserve(pool.size());
    for (const auto n : pool) {
      candidates.push_back(Candidate{population.info(n).capacity,
                                     population.coord_distance_ms(from, n)});
    }
    idx = weighted_sample_without_replacement(
        selection_preferences(*resource_level, candidates), want, rng);
  }
  std::vector<overlay::PeerId> out;
  out.reserve(idx.size());
  for (const auto i : idx) out.push_back(pool[i]);
  return out;
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
      resource_level_(population.size()) {
  GC_REQUIRE(options_.forward_fraction > 0.0 &&
             options_.forward_fraction <= 1.0);
  GC_REQUIRE(options_.ttl >= 1);
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
        AdvertisementEngine& engine = *context->engine;
        AdvertisementState& st = *context->state;
        const auto now_us = engine.simulator_->now().as_micros();
        if (st.parent[at] != overlay::kNoPeer) {  // duplicate: drop
          context->counters->incr(at, trace::CounterId::kMessagesDropped);
          context->tracer->emit(
              now_us, trace::EventKind::kMessageDropped, at, from,
              static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
          return;
        }
        st.parent[at] = from;
        st.arrival[at] = engine.simulator_->now();
        context->counters->incr(at, trace::CounterId::kMessagesReceived);
        if (ttl == 0) return;
        const auto targets = select_forward_targets(
            engine.options_, *engine.population_, at,
            engine.graph_->neighbors(at), from, engine.resource_level_[at],
            engine.rng_);
        for (const auto to : targets) {
          ++st.messages;
          if (context->stats != nullptr) {
            context->stats->count(MessageKind::kAdvertisement);
          }
          context->counters->incr(at, trace::CounterId::kMessagesSent);
          context->counters->incr(at, trace::CounterId::kAdvertsForwarded);
          context->tracer->emit(now_us, trace::EventKind::kAdvertForwarded,
                                at, to, ttl);
          const auto latency =
              sim::SimTime::millis(engine.population_->latency_ms(at, to));
          engine.simulator_->schedule(
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
