#include "core/middleware.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

namespace {

/// Random-walk length used by pick_rendezvous().
constexpr std::size_t kRendezvousWalkLength = 20;

}  // namespace

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kGroupCast:
      return "GroupCast";
    case OverlayKind::kRandomPowerLaw:
      return "random-power-law";
    case OverlayKind::kSupernode:
      return "supernode";
  }
  return "?";
}

GroupCastMiddleware::GroupCastMiddleware(const MiddlewareConfig& config)
    // Stream 0 of the seed, not the raw seed: every deployment owns an
    // explicit RNG stream, so a harness laddering seeds (seed, seed+1, ...)
    // or any other Rng(seed) user cannot collide with the deployment's
    // generator state.
    : config_(config), rng_(util::Rng::for_stream(config.seed, 0)) {
  GC_REQUIRE(config_.peer_count >= 2);

  switch (config_.underlay_model) {
    case UnderlayModel::kTransitStub: {
      const auto ts_config = net::scale_config_for_peers(
          config_.peer_count, config_.peers_per_router);
      underlay_ = std::make_shared<const net::UnderlayTopology>(
          net::generate_transit_stub(ts_config, rng_));
      break;
    }
    case UnderlayModel::kWaxman: {
      net::WaxmanConfig waxman;
      waxman.routers = static_cast<std::uint32_t>(std::max<std::size_t>(
          48, config_.peer_count / config_.peers_per_router));
      underlay_ = std::make_shared<const net::UnderlayTopology>(
          net::generate_waxman(waxman, rng_));
      break;
    }
  }
  routing_ = std::make_shared<const net::IpRouting>(*underlay_);

  auto pop_config = config_.population;
  pop_config.peer_count = config_.peer_count;
  population_ = std::make_shared<const overlay::PeerPopulation>(
      *routing_, pop_config, rng_);

  graph_ = std::make_unique<overlay::OverlayGraph>(config_.peer_count);
  host_cache_ = std::make_unique<overlay::HostCacheServer>(
      *population_, config_.host_cache, rng_);
  bootstrap_ = std::make_unique<overlay::GroupCastBootstrap>(
      *population_, *graph_, *host_cache_, config_.bootstrap, rng_);

  trace::tracer().emit(
      0, trace::EventKind::kPhaseBegin, trace::kNoNode, trace::kNoNode,
      static_cast<std::uint64_t>(trace::Phase::kBootstrap));
  build_overlay();
  repair_edges_ = ensure_connected();
}

GroupCastMiddleware::GroupCastMiddleware(
    std::shared_ptr<const DeploymentSnapshot> snapshot)
    : config_(snapshot->config),
      rng_(snapshot->rng),
      underlay_(snapshot->underlay),
      routing_(snapshot->routing),
      population_(snapshot->population),
      graph_(std::make_unique<overlay::OverlayGraph>(*snapshot->graph)),
      host_cache_(
          std::make_unique<overlay::HostCacheServer>(*snapshot->host_cache)),
      supernode_layout_(snapshot->supernode_layout),
      repair_edges_(snapshot->repair_edges) {
  bootstrap_ = std::make_unique<overlay::GroupCastBootstrap>(
      *snapshot->bootstrap, *graph_, *host_cache_);
  // Replay the recorded construction-phase instrumentation, so a forked
  // run's counters and trace are byte-identical to a freshly-constructed
  // run's.  Both calls are no-ops while counting / tracing is off.
  trace::counters().merge(snapshot->counters);
  auto& tracer = trace::tracer();
  if (tracer.enabled()) {
    for (const auto& event : snapshot->events) tracer.emit(event);
  }
}

namespace {

/// Captures every trace event emitted while installed (make_snapshot's
/// recorder); unbounded on purpose — construction emits one event per
/// join plus a handful of phase markers.
class RecordingSink final : public trace::TraceSink {
 public:
  void record(const trace::TraceEvent& event) override {
    events_.push_back(event);
  }
  void flush() override {}
  std::vector<trace::TraceEvent> take() { return std::move(events_); }

 private:
  std::vector<trace::TraceEvent> events_;
};

/// Save/restore sink installer.  ScopedSink is not used here because it
/// insists on owning its sink and discards the previously-installed one;
/// make_snapshot must hand the caller's sink back afterwards.
class SinkSwap {
 public:
  explicit SinkSwap(trace::TraceSink* replacement)
      : previous_(trace::tracer().sink()) {
    trace::tracer().set_sink(replacement);
  }
  ~SinkSwap() { trace::tracer().set_sink(previous_); }
  SinkSwap(const SinkSwap&) = delete;
  SinkSwap& operator=(const SinkSwap&) = delete;

 private:
  trace::TraceSink* previous_;
};

}  // namespace

std::shared_ptr<const DeploymentSnapshot> GroupCastMiddleware::make_snapshot(
    const MiddlewareConfig& config) {
  auto snapshot = std::make_shared<DeploymentSnapshot>();
  trace::CounterRegistry recorded_counters;
  recorded_counters.enable(config.peer_count);
  RecordingSink recorder;
  {
    // The donor builds under a private registry + sink: the recording is
    // complete even when the caller's instrumentation is disabled, and
    // nothing is emitted twice into an enabled caller's.
    trace::ScopedCounterRegistry counter_guard(recorded_counters);
    SinkSwap sink_guard(&recorder);
    GroupCastMiddleware donor(config);
    snapshot->config = donor.config_;
    snapshot->underlay = donor.underlay_;
    snapshot->routing = donor.routing_;
    snapshot->population = donor.population_;
    snapshot->graph = std::move(donor.graph_);
    snapshot->host_cache = std::move(donor.host_cache_);
    snapshot->bootstrap = std::move(donor.bootstrap_);
    snapshot->supernode_layout = std::move(donor.supernode_layout_);
    snapshot->rng = donor.rng_;
    snapshot->repair_edges = donor.repair_edges_;
  }
  snapshot->counters = recorded_counters.snapshot();
  snapshot->events = recorder.take();
  return snapshot;
}

void GroupCastMiddleware::build_overlay() {
  switch (config_.overlay) {
    case OverlayKind::kGroupCast: {
      // Peers join one at a time in random order, as in the paper's
      // Section 4.1 arrival process.  (Arrival *spacing* does not affect
      // the resulting topology, since no peer departs, so the joins are
      // executed directly rather than through the simulator.)
      std::vector<overlay::PeerId> order(config_.peer_count);
      std::iota(order.begin(), order.end(), 0);
      rng_.shuffle(order);
      for (const auto peer : order) bootstrap_->join(peer);
      break;
    }
    case OverlayKind::kRandomPowerLaw: {
      overlay::generate_plod(*graph_, rng_);
      // PLOD peers are still registered so host-cache-based lookups work
      // identically on both overlays.
      for (overlay::PeerId p = 0; p < config_.peer_count; ++p) {
        host_cache_->register_peer(p);
      }
      break;
    }
    case OverlayKind::kSupernode: {
      supernode_layout_ = overlay::build_supernode_overlay(
          *population_, *graph_, *host_cache_, rng_);
      break;
    }
  }
  // The join storm leaves doubling slop and relocation garbage in the
  // adjacency arena; the overlay is long-lived from here, so pack it.
  graph_->compact();
}

std::size_t GroupCastMiddleware::ensure_connected() {
  // Components of the undirected view.
  const std::size_t n = graph_->peer_count();
  std::vector<std::int32_t> component(n, -1);
  std::int32_t n_components = 0;
  std::vector<std::size_t> component_size;
  for (std::size_t start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    const std::int32_t c = n_components++;
    component_size.push_back(0);
    std::queue<overlay::PeerId> frontier;
    frontier.push(static_cast<overlay::PeerId>(start));
    component[start] = c;
    while (!frontier.empty()) {
      const auto at = frontier.front();
      frontier.pop();
      ++component_size[static_cast<std::size_t>(c)];
      for (const auto nbr : graph_->neighbors(at)) {
        if (component[nbr] < 0) {
          component[nbr] = c;
          frontier.push(nbr);
        }
      }
    }
  }
  if (n_components <= 1) return 0;

  // Attach every secondary component to the giant one: its most capable
  // member links to a random giant-component member (out edge + back edge).
  const auto giant = static_cast<std::int32_t>(
      std::max_element(component_size.begin(), component_size.end()) -
      component_size.begin());
  std::vector<overlay::PeerId> giant_members;
  for (std::size_t p = 0; p < n; ++p) {
    if (component[p] == giant) {
      giant_members.push_back(static_cast<overlay::PeerId>(p));
    }
  }
  std::vector<overlay::PeerId> best(static_cast<std::size_t>(n_components),
                                    overlay::kNoPeer);
  for (std::size_t p = 0; p < n; ++p) {
    auto& b = best[static_cast<std::size_t>(component[p])];
    if (b == overlay::kNoPeer ||
        population_->info(static_cast<overlay::PeerId>(p)).capacity >
            population_->info(b).capacity) {
      b = static_cast<overlay::PeerId>(p);
    }
  }
  std::size_t repairs = 0;
  for (std::int32_t c = 0; c < n_components; ++c) {
    if (c == giant) continue;
    const auto from = best[static_cast<std::size_t>(c)];
    const auto to = giant_members[rng_.uniform_index(giant_members.size())];
    graph_->add_edge(from, to);
    graph_->add_edge(to, from);
    ++repairs;
  }
  return repairs;
}

overlay::PeerId GroupCastMiddleware::pick_rendezvous() {
  // Random walk: start at a connected peer, remember the most capable
  // peer visited.  Isolated peers (departed, or not yet joined) cannot
  // serve as rendezvous points.
  auto at = static_cast<overlay::PeerId>(
      rng_.uniform_index(population_->size()));
  for (std::size_t attempt = 0;
       graph_->degree(at) == 0 && attempt < population_->size(); ++attempt) {
    at = static_cast<overlay::PeerId>(rng_.uniform_index(population_->size()));
  }
  GC_REQUIRE_MSG(graph_->degree(at) > 0,
                 "no connected peers to host a rendezvous point");
  overlay::PeerId best = at;
  for (std::size_t step = 0; step < kRendezvousWalkLength; ++step) {
    const auto nbrs = graph_->neighbors(at);
    if (nbrs.empty()) break;
    at = nbrs[rng_.uniform_index(nbrs.size())];
    if (population_->info(at).capacity > population_->info(best).capacity) {
      best = at;
    }
  }
  return best;
}

GroupHandle GroupCastMiddleware::establish_group(
    overlay::PeerId rendezvous,
    const std::vector<overlay::PeerId>& subscribers) {
  GC_REQUIRE(rendezvous < population_->size());

  trace::tracer().emit(
      simulator_.now().as_micros(), trace::EventKind::kPhaseBegin,
      rendezvous, trace::kNoNode,
      static_cast<std::uint64_t>(trace::Phase::kAdvertisement));
  AdvertisementEngine advertiser(simulator_, *population_, *graph_,
                                 config_.advertisement, rng_);
  GroupHandle group(AdvertisementState{}, SpanningTree(rendezvous));
  group.advert = advertiser.announce(rendezvous, &group.stats);

  SubscriptionProtocol subscription(*population_, *graph_,
                                    config_.subscription);
  group.report = subscription.subscribe_all(group.advert, subscribers,
                                            group.tree, &group.stats);
  trace::tracer().emit(
      simulator_.now().as_micros(), trace::EventKind::kPhaseBegin,
      rendezvous, trace::kNoNode,
      static_cast<std::uint64_t>(trace::Phase::kSteadyState));
  return group;
}

GroupHandle GroupCastMiddleware::establish_random_group(
    std::size_t group_size) {
  GC_REQUIRE(group_size >= 1);
  GC_REQUIRE(group_size <= population_->size());
  const auto rendezvous = pick_rendezvous();
  std::vector<overlay::PeerId> subscribers;
  subscribers.reserve(group_size);
  const auto picks = rng_.sample_indices(population_->size(), group_size);
  for (const auto p : picks) {
    const auto peer = static_cast<overlay::PeerId>(p);
    if (peer != rendezvous) subscribers.push_back(peer);
  }
  return establish_group(rendezvous, subscribers);
}

}  // namespace groupcast::core
