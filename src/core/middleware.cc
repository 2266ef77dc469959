#include "core/middleware.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <queue>
#include <thread>

#include "trace/trace.h"
#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::core {

namespace {

/// Random-walk length used by pick_rendezvous().
constexpr std::size_t kRendezvousWalkLength = 20;

/// Joins `order` on the calling thread while one background thread per
/// spare core fits the GNP coordinates in the same order, kGnpFitGrain
/// hosts a chunk.  A join waits only for its own peer's chunk: it reads
/// the coordinates of the joiner and of peers that joined before it, never
/// of a later one.  Inside a parallel_for chunk (a grid cell) there are no
/// background threads: each wait fits its chunk on this thread.
void join_while_fitting(overlay::GroupCastBootstrap& bootstrap,
                        overlay::PeerPopulation& population,
                        const std::vector<overlay::PeerId>& order) {
  std::atomic<std::size_t> fitted{0};
  util::ChunkPipeline fits(
      order.size(), coords::kGnpFitGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          population.fit_coordinate(order[i]);
        }
        // Whichever thread fits the last host frees the probe rows.
        if (fitted.fetch_add(end - begin, std::memory_order_acq_rel) +
                (end - begin) ==
            order.size()) {
          population.end_fits();
        }
      },
      util::in_parallel_worker()
          ? 0
          : std::max(1u, std::thread::hardware_concurrency()) - 1);
  for (std::size_t t = 0; t < order.size(); ++t) {
    fits.wait_for(t);
    bootstrap.join(order[t]);
  }
  fits.finish();
}

net::UnderlayTopology generate_underlay(const MiddlewareConfig& config,
                                        util::Rng& rng) {
  if (config.underlay_model == UnderlayModel::kWaxman) {
    net::WaxmanConfig waxman;
    waxman.routers = static_cast<std::uint32_t>(std::max<std::size_t>(
        48, config.peer_count / config.peers_per_router));
    return net::generate_waxman(waxman, rng);
  }
  return net::generate_transit_stub(
      net::scale_config_for_peers(config.peer_count, config.peers_per_router),
      rng);
}

/// Attaches every secondary component of the overlay's undirected view to
/// the giant one: its most capable member links to a random
/// giant-component member (out edge + back edge).  Returns the number of
/// repairs.
std::size_t connect_components(overlay::OverlayGraph& graph,
                               const overlay::PeerPopulation& population,
                               util::Rng& rng) {
  // Components of the undirected view.
  const std::size_t n = graph.peer_count();
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
      for (const auto nbr : graph.neighbors(at)) {
        if (component[nbr] < 0) {
          component[nbr] = c;
          frontier.push(nbr);
        }
      }
    }
  }
  if (n_components <= 1) return 0;

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
        population.info(static_cast<overlay::PeerId>(p)).capacity >
            population.info(b).capacity) {
      b = static_cast<overlay::PeerId>(p);
    }
  }
  std::size_t repairs = 0;
  for (std::int32_t c = 0; c < n_components; ++c) {
    if (c == giant) continue;
    const auto from = best[static_cast<std::size_t>(c)];
    const auto to = giant_members[rng.uniform_index(giant_members.size())];
    graph.add_edge(from, to);
    graph.add_edge(to, from);
    ++repairs;
  }
  return repairs;
}

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

std::shared_ptr<const DeploymentSnapshot> GroupCastMiddleware::make_snapshot(
    const MiddlewareConfig& config) {
  GC_REQUIRE(config.peer_count >= 2);
  auto world = std::make_shared<DeploymentSnapshot>();
  world->config = config;
  // Stream 0 of the seed, not the raw seed: every deployment owns an
  // explicit RNG stream, so a harness laddering seeds (seed, seed+1, ...)
  // or any other Rng(seed) user cannot collide with the deployment's
  // generator state.
  util::Rng rng = util::Rng::for_stream(config.seed, 0);
  world->underlay = std::make_shared<const net::UnderlayTopology>(
      generate_underlay(config, rng));
  world->routing = std::make_shared<const net::IpRouting>(*world->underlay);

  auto pop_config = config.population;
  pop_config.peer_count = config.peer_count;
  // A GroupCast build fits the coordinates during its joins; the draws and
  // probes happen here either way.
  std::shared_ptr<overlay::PeerPopulation> unfitted;
  if (config.overlay == OverlayKind::kGroupCast) {
    unfitted = std::make_shared<overlay::PeerPopulation>(
        *world->routing, pop_config, rng,
        overlay::PeerPopulation::DeferFits{});
    world->population = unfitted;
  } else {
    world->population = std::make_shared<const overlay::PeerPopulation>(
        *world->routing, pop_config, rng);
  }
  const auto& population = *world->population;

  auto graph = std::make_unique<overlay::OverlayGraph>(config.peer_count);
  auto host_cache = std::make_unique<overlay::HostCacheServer>(
      population, config.host_cache, rng);
  // Made for every overlay kind: its stream split keeps the draws of the
  // kinds that do not join through it where they have always been.
  overlay::GroupCastBootstrap bootstrap(population, *graph, *host_cache,
                                        config.bootstrap, rng);
  switch (config.overlay) {
    case OverlayKind::kGroupCast: {
      // Peers join one at a time in random order, as in the paper's
      // Section 4.1 arrival process.  (Arrival *spacing* does not affect
      // the resulting topology, since no peer departs, so the joins are
      // executed directly rather than through the simulator.)
      std::vector<overlay::PeerId> order(config.peer_count);
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      join_while_fitting(bootstrap, *unfitted, order);
      world->joins = bootstrap.take_joins();
      break;
    }
    case OverlayKind::kRandomPowerLaw: {
      overlay::generate_plod(*graph, rng);
      // PLOD peers are still registered so host-cache-based lookups work
      // identically on both overlays.
      for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
        host_cache->register_peer(p);
      }
      break;
    }
    case OverlayKind::kSupernode: {
      world->supernode_layout = overlay::build_supernode_overlay(
          population, *graph, *host_cache, rng);
      // One join log per world, whatever the overlay kind.
      world->joins = std::move(world->supernode_layout.core_joins);
      break;
    }
  }
  // The join storm leaves doubling slop and relocation garbage in the
  // adjacency arena; the overlay is long-lived from here, so pack it.
  graph->compact();
  world->repair_edges = connect_components(*graph, population, rng);
  world->graph = std::move(graph);
  world->host_cache = std::move(host_cache);
  world->rng = rng;
  return world;
}

GroupCastMiddleware::GroupCastMiddleware(const MiddlewareConfig& config)
    : GroupCastMiddleware(make_snapshot(config)) {}

GroupCastMiddleware::GroupCastMiddleware(
    std::shared_ptr<const DeploymentSnapshot> world)
    : world_(std::move(world)), rng_(world_->rng) {
  // The construction-phase instrumentation, the same for every run on the
  // world however many share it.
  trace::tracer().emit(
      0, trace::EventKind::kPhaseBegin, trace::kNoNode, trace::kNoNode,
      static_cast<std::uint64_t>(trace::Phase::kBootstrap));
  overlay::emit_joins(world_->joins);
}

overlay::PeerId GroupCastMiddleware::pick_rendezvous() {
  // Random walk: start at a connected peer, remember the most capable
  // peer visited.  Isolated peers (departed, or not yet joined) cannot
  // serve as rendezvous points.
  const auto& peers = population();
  const auto& links = graph();
  auto at = static_cast<overlay::PeerId>(rng_.uniform_index(peers.size()));
  for (std::size_t attempt = 0;
       links.degree(at) == 0 && attempt < peers.size(); ++attempt) {
    at = static_cast<overlay::PeerId>(rng_.uniform_index(peers.size()));
  }
  GC_REQUIRE_MSG(links.degree(at) > 0,
                 "no connected peers to host a rendezvous point");
  overlay::PeerId best = at;
  for (std::size_t step = 0; step < kRendezvousWalkLength; ++step) {
    const auto nbrs = links.neighbors(at);
    if (nbrs.empty()) break;
    at = nbrs[rng_.uniform_index(nbrs.size())];
    if (peers.info(at).capacity > peers.info(best).capacity) best = at;
  }
  return best;
}

GroupHandle GroupCastMiddleware::establish_group(
    overlay::PeerId rendezvous,
    const std::vector<overlay::PeerId>& subscribers) {
  GC_REQUIRE(rendezvous < population().size());

  trace::tracer().emit(
      simulator_.now().as_micros(), trace::EventKind::kPhaseBegin,
      rendezvous, trace::kNoNode,
      static_cast<std::uint64_t>(trace::Phase::kAdvertisement));
  AdvertisementEngine advertiser(simulator_, population(), graph(),
                                 config().advertisement, rng_);
  GroupHandle group(AdvertisementState{}, SpanningTree(rendezvous));
  group.advert = advertiser.announce(rendezvous, &group.stats);

  SubscriptionProtocol subscription(population(), graph(),
                                    config().subscription);
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
  GC_REQUIRE(group_size <= population().size());
  const auto rendezvous = pick_rendezvous();
  std::vector<overlay::PeerId> subscribers;
  subscribers.reserve(group_size);
  const auto picks = rng_.sample_indices(population().size(), group_size);
  for (const auto p : picks) {
    const auto peer = static_cast<overlay::PeerId>(p);
    if (peer != rendezvous) subscribers.push_back(peer);
  }
  return establish_group(rendezvous, subscribers);
}

}  // namespace groupcast::core
