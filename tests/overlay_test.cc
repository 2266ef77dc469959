// Tests for the overlay substrate: Table 1 capacities, peer populations,
// the overlay graph, host cache, utility-aware bootstrap, PLOD baseline,
// and churn / maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "metrics/graph_stats.h"
#include "overlay/bootstrap.h"
#include "overlay/churn.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "overlay/maintenance.h"
#include "overlay/peer.h"
#include "overlay/plod.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::overlay {
namespace {

// ---------------------------------------------------------------- Table 1

TEST(CapacityDistribution, Table1ResourceLevels) {
  const CapacityDistribution table1;
  EXPECT_DOUBLE_EQ(table1.resource_level(1.0), 0.0);
  EXPECT_DOUBLE_EQ(table1.resource_level(10.0), 0.20);
  EXPECT_DOUBLE_EQ(table1.resource_level(100.0), 0.65);
  EXPECT_DOUBLE_EQ(table1.resource_level(1000.0), 0.95);
  EXPECT_NEAR(table1.resource_level(10000.0), 0.999, 1e-12);
}

TEST(CapacityDistribution, SamplingMatchesTable1) {
  const CapacityDistribution table1;
  util::Rng rng(1);
  std::map<double, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table1.sample(rng)];
  EXPECT_NEAR(counts[1.0] / static_cast<double>(n), 0.20, 0.01);
  EXPECT_NEAR(counts[10.0] / static_cast<double>(n), 0.45, 0.01);
  EXPECT_NEAR(counts[100.0] / static_cast<double>(n), 0.30, 0.01);
  EXPECT_NEAR(counts[1000.0] / static_cast<double>(n), 0.049, 0.005);
  EXPECT_NEAR(counts[10000.0] / static_cast<double>(n), 0.001, 0.001);
}

// ----------------------------------------------------------- population

TEST(PeerPopulation, LatencySymmetricNonNegativeZeroOnSelf) {
  testing::SmallWorld world(24, 5);
  const auto& population = *world.population;
  for (PeerId a = 0; a < 24; ++a) {
    EXPECT_DOUBLE_EQ(population.latency_ms(a, a), 0.0);
    for (PeerId b = 0; b < 24; ++b) {
      EXPECT_DOUBLE_EQ(population.latency_ms(a, b),
                       population.latency_ms(b, a));
      if (a != b) {
        EXPECT_GT(population.latency_ms(a, b), 0.0);
      }
    }
  }
}

TEST(PeerPopulation, PeersAttachToStubRouters) {
  testing::SmallWorld world(32, 7);
  for (const auto& peer : world.population->peers()) {
    EXPECT_EQ(world.underlay->router(peer.router).kind,
              net::RouterKind::kStub);
    EXPECT_GT(peer.access_latency_ms, 0.0);
    EXPECT_GT(peer.capacity, 0.0);
  }
}

// Access links draw U(0.2, 2.0) ms, so two peers on one stub router are
// at least two minimum access hops apart.
TEST(PeerPopulation, AccessLatencyDrawnFromFixedRange) {
  testing::SmallWorld world(96, 11);
  const auto& population = *world.population;
  for (const auto& peer : population.peers()) {
    EXPECT_GE(peer.access_latency_ms, 0.2);
    EXPECT_LE(peer.access_latency_ms, 2.0);
  }
  for (PeerId a = 0; a < 96; ++a) {
    for (PeerId b = a + 1; b < 96; ++b) {
      if (population.info(a).router != population.info(b).router) continue;
      EXPECT_GE(population.latency_ms(a, b), 0.4);
      EXPECT_LE(population.latency_ms(a, b), 4.0);
    }
  }
}

TEST(PeerPopulation, SampledResourceLevelTracksExact) {
  testing::SmallWorld world(128, 9);
  const auto& population = *world.population;
  util::Rng rng(10);
  for (PeerId p = 0; p < 128; p += 17) {
    const double sampled = population.sampled_resource_level(p, 64, rng);
    EXPECT_NEAR(sampled, population.resource_level(p), 0.25);
  }
}

// ---------------------------------------------------------------- graph

TEST(OverlayGraph, AddRemoveEdges) {
  OverlayGraph graph(4);
  EXPECT_TRUE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(0, 1));  // duplicate
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_FALSE(graph.has_edge(1, 0));  // directed
  EXPECT_TRUE(graph.connected(1, 0));  // either direction
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.remove_edge(0, 1));
  EXPECT_FALSE(graph.remove_edge(0, 1));
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(OverlayGraph, RejectsSelfEdgeAndRange) {
  OverlayGraph graph(3);
  EXPECT_THROW(graph.add_edge(1, 1), PreconditionError);
  EXPECT_THROW(graph.add_edge(0, 5), PreconditionError);
}

TEST(OverlayGraph, NeighborsMergesDirections) {
  OverlayGraph graph(5);
  graph.add_edge(0, 1);
  graph.add_edge(2, 0);
  graph.add_edge(0, 3);
  graph.add_edge(3, 0);  // both directions -> still one neighbour
  const auto nbrs = graph.neighbors(0);
  EXPECT_EQ(std::set<PeerId>(nbrs.begin(), nbrs.end()),
            (std::set<PeerId>{1, 2, 3}));
  EXPECT_EQ(graph.degree(0), 3u);
}

TEST(OverlayGraph, IsolateRemovesAllIncidentEdges) {
  OverlayGraph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(2, 0);
  graph.add_edge(0, 3);
  graph.isolate(0);
  EXPECT_EQ(graph.degree(0), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(OverlayGraph, ConnectivityReport) {
  OverlayGraph graph(6);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(3, 4);  // second component; 5 isolated
  const auto report = graph.connectivity();
  EXPECT_FALSE(report.connected);
  EXPECT_EQ(report.isolated_peers, 1u);
  EXPECT_EQ(report.largest_component, 3u);
  graph.add_edge(2, 3);
  graph.add_edge(4, 5);
  EXPECT_TRUE(graph.connectivity().connected);
}

TEST(OverlayGraph, ClusteringCoefficientKnownGraphs) {
  // Triangle: coefficient 1.
  OverlayGraph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(triangle.clustering_coefficient(), 1.0);
  // Star: centre has no closed pairs -> coefficient 0.
  OverlayGraph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_DOUBLE_EQ(star.clustering_coefficient(), 0.0);
}

TEST(OverlayGraph, AverageHopDistanceOnLine) {
  OverlayGraph line(10);
  for (PeerId p = 0; p + 1 < 10; ++p) line.add_edge(p, p + 1);
  util::Rng rng(3);
  const double avg = line.average_hop_distance(rng, 500);
  // Expected mean |i-j| over uniform pairs of 10 nodes is 3.3.
  EXPECT_NEAR(avg, 3.3, 0.6);
}

// ------------------------------------------------------------ host cache

TEST(HostCache, RegisterDeregisterContains) {
  testing::SmallWorld world(32, 11);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  cache.register_peer(3);
  cache.register_peer(3);  // idempotent
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.size(), 1u);
  cache.deregister_peer(3);
  EXPECT_FALSE(cache.contains(3));
  cache.deregister_peer(3);  // no-op
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HostCache, EvictsWhenFull) {
  testing::SmallWorld world(64, 13);
  HostCacheOptions options;
  options.capacity = 8;
  HostCacheServer cache(*world.population, options, world.rng);
  for (PeerId p = 0; p < 32; ++p) cache.register_peer(p);
  EXPECT_EQ(cache.size(), 8u);
}

TEST(HostCache, CandidatesExcludeJoinerAndAreDistinct) {
  testing::SmallWorld world(48, 17);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  for (PeerId p = 0; p < 48; ++p) cache.register_peer(p);
  for (int trial = 0; trial < 20; ++trial) {
    const auto batch = cache.bootstrap_candidates(5);
    EXPECT_GE(batch.size(), 5u);
    EXPECT_LE(batch.size(), 8u);
    std::set<PeerId> unique(batch.begin(), batch.end());
    EXPECT_EQ(unique.size(), batch.size());
    EXPECT_FALSE(unique.contains(5));
  }
}

TEST(HostCache, ClosestHalfAreActuallyClose) {
  testing::SmallWorld world(48, 19);
  const auto& population = *world.population;
  HostCacheServer cache(population, HostCacheOptions{}, world.rng);
  for (PeerId p = 0; p < 48; ++p) cache.register_peer(p);
  const PeerId joiner = 0;
  const auto batch = cache.bootstrap_candidates(joiner);
  ASSERT_GE(batch.size(), 5u);
  // The first entry is the globally closest cached peer by coordinates.
  double min_dist = 1e18;
  for (PeerId p = 1; p < 48; ++p) {
    min_dist = std::min(min_dist, population.coord_distance_ms(joiner, p));
  }
  EXPECT_NEAR(population.coord_distance_ms(joiner, batch.front()), min_dist,
              1e-9);
}

TEST(HostCache, EmptyCacheYieldsNoCandidates) {
  testing::SmallWorld world(16, 23);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  EXPECT_TRUE(cache.bootstrap_candidates(0).empty());
  cache.register_peer(4);
  EXPECT_TRUE(cache.bootstrap_candidates(4).empty());  // only the joiner
}

// ------------------------------------------------------------- bootstrap

struct BootstrapFixture {
  testing::SmallWorld world;
  OverlayGraph graph;
  HostCacheServer cache;
  GroupCastBootstrap bootstrap;

  explicit BootstrapFixture(std::size_t peers = 96, std::uint64_t seed = 29)
      : world(peers, seed),
        graph(peers),
        cache(*world.population, HostCacheOptions{}, world.rng),
        bootstrap(*world.population, graph, cache, BootstrapOptions{},
                  world.rng) {}
};

TEST(Bootstrap, TargetDegreeMonotonicInCapacity) {
  BootstrapFixture f;
  const auto& b = f.bootstrap;
  EXPECT_LE(b.target_degree(1.0), b.target_degree(10.0));
  EXPECT_LE(b.target_degree(10.0), b.target_degree(100.0));
  EXPECT_LE(b.target_degree(100.0), b.target_degree(10000.0));
  EXPECT_GE(b.target_degree(1.0), kDegreeMin);
  EXPECT_EQ(b.target_degree(1e12), kDegreeMax);
}

// ceil(1.6 * C^0.32) at each Table 1 capacity; all fall inside the
// [2, 48] clamp.
TEST(Bootstrap, TargetDegreeAtTable1Capacities) {
  BootstrapFixture f;
  const auto& b = f.bootstrap;
  EXPECT_EQ(b.target_degree(1.0), 2u);
  EXPECT_EQ(b.target_degree(10.0), 4u);
  EXPECT_EQ(b.target_degree(100.0), 7u);
  EXPECT_EQ(b.target_degree(1000.0), 15u);
  EXPECT_EQ(b.target_degree(10000.0), 31u);
}

TEST(Bootstrap, JoinRegistersAndConnects) {
  BootstrapFixture f;
  f.bootstrap.join(0);
  EXPECT_TRUE(f.bootstrap.is_joined(0));
  EXPECT_TRUE(f.cache.contains(0));
  // First joiner has no one to connect to.
  EXPECT_EQ(f.graph.degree(0), 0u);
  f.bootstrap.join(1);
  EXPECT_GT(f.graph.degree(1), 0u);  // found peer 0 via the cache
  EXPECT_THROW(f.bootstrap.join(1), PreconditionError);  // double join
}

TEST(Bootstrap, FullJoinProducesLargelyConnectedOverlay) {
  BootstrapFixture f(128, 31);
  for (PeerId p = 0; p < 128; ++p) f.bootstrap.join(p);
  const auto report = f.graph.connectivity();
  EXPECT_GE(report.largest_component, 120u);
}

TEST(Bootstrap, OutDegreeBoundedByTarget) {
  BootstrapFixture f(128, 37);
  for (PeerId p = 0; p < 128; ++p) {
    f.bootstrap.join(p);
    const auto target =
        f.bootstrap.target_degree(f.world.population->info(p).capacity);
    EXPECT_LE(f.graph.out_neighbors(p).size(), target);
  }
}

TEST(Bootstrap, BackLinkProbabilityInUnitInterval) {
  BootstrapFixture f(96, 41);
  for (PeerId p = 0; p < 96; ++p) f.bootstrap.join(p);
  for (PeerId k = 0; k < 96; k += 7) {
    const auto nbrs = f.graph.neighbors(k);
    for (PeerId i = 0; i < 96; i += 11) {
      if (i == k) continue;
      const double pb = f.bootstrap.back_link_probability(k, i, nbrs);
      EXPECT_GE(pb, 0.0);
      EXPECT_LE(pb, 1.0);
    }
  }
}

TEST(Bootstrap, EmptyNeighbourhoodAcceptsBackLink) {
  BootstrapFixture f;
  EXPECT_DOUBLE_EQ(f.bootstrap.back_link_probability(0, 1, {}), 1.0);
}

TEST(Bootstrap, LeaveRemovesEverything) {
  BootstrapFixture f(64, 43);
  for (PeerId p = 0; p < 64; ++p) f.bootstrap.join(p);
  f.bootstrap.leave(10);
  EXPECT_FALSE(f.bootstrap.is_joined(10));
  EXPECT_FALSE(f.cache.contains(10));
  EXPECT_EQ(f.graph.degree(10), 0u);
  EXPECT_THROW(f.bootstrap.leave(10), PreconditionError);
  // Rejoin works.
  f.bootstrap.join(10);
  EXPECT_TRUE(f.bootstrap.is_joined(10));
}

TEST(Bootstrap, FailKeepsStaleStateForMaintenance) {
  BootstrapFixture f(64, 47);
  for (PeerId p = 0; p < 64; ++p) f.bootstrap.join(p);
  const auto degree_before = f.graph.degree(20);
  ASSERT_GT(degree_before, 0u);
  f.bootstrap.fail(20);
  EXPECT_FALSE(f.bootstrap.is_joined(20));
  EXPECT_TRUE(f.cache.contains(20));             // stale directory entry
  EXPECT_EQ(f.graph.degree(20), degree_before);  // half-open links remain
  f.bootstrap.report_failure(20);
  EXPECT_FALSE(f.cache.contains(20));
}

TEST(Bootstrap, RefillTopsUpAfterNeighbourLoss) {
  BootstrapFixture f(96, 53);
  for (PeerId p = 0; p < 96; ++p) f.bootstrap.join(p);
  // Kill all of peer 5's out-neighbours.
  const auto outs = f.graph.out_neighbors(5);
  for (const auto nbr : std::vector<PeerId>(outs.begin(), outs.end())) {
    f.graph.remove_edge(5, nbr);
  }
  EXPECT_EQ(f.graph.out_neighbors(5).size(), 0u);
  const auto added = f.bootstrap.refill(5);
  EXPECT_GT(added, 0u);
  EXPECT_EQ(f.graph.out_neighbors(5).size(), added);
}

TEST(Bootstrap, RefillNoOpAtTarget) {
  BootstrapFixture f(96, 59);
  for (PeerId p = 0; p < 96; ++p) f.bootstrap.join(p);
  // Find a peer already at its target degree.
  for (PeerId p = 0; p < 96; ++p) {
    const auto target =
        f.bootstrap.target_degree(f.world.population->info(p).capacity);
    if (f.graph.out_neighbors(p).size() >= target) {
      EXPECT_EQ(f.bootstrap.refill(p), 0u);
      return;
    }
  }
  GTEST_SKIP() << "no saturated peer in this topology";
}

// ------------------------------------------------------------------ PLOD

TEST(Plod, ProducesConnectedPowerLawGraph) {
  OverlayGraph graph(600);
  util::Rng rng(61);
  const auto result = generate_plod(graph, rng);
  EXPECT_GT(result.placed_edges, 0u);
  EXPECT_TRUE(graph.connectivity().connected);
  const auto dist = metrics::degree_distribution(graph);
  EXPECT_LT(dist.log_log_slope(), -0.8);  // clearly decaying tail
}

TEST(Plod, EdgesAreSymmetricPairs) {
  OverlayGraph graph(200);
  util::Rng rng(67);
  generate_plod(graph, rng);
  for (PeerId p = 0; p < 200; ++p) {
    for (const auto q : graph.out_neighbors(p)) {
      EXPECT_TRUE(graph.has_edge(q, p));
    }
  }
}

TEST(Plod, RequiresEmptyGraph) {
  OverlayGraph graph(10);
  graph.add_edge(0, 1);
  util::Rng rng(71);
  EXPECT_THROW(generate_plod(graph, rng), PreconditionError);
}

TEST(Plod, RespectsDegreeCap) {
  // The credit cap grows with the network: max(64, n / 10).
  const std::size_t n = 1000;
  OverlayGraph graph(n);
  util::Rng rng(73);
  generate_plod(graph, rng);
  const std::size_t cap = std::max<std::size_t>(64, n / 10);
  for (PeerId p = 0; p < n; ++p) {
    // repair edges can add at most a couple beyond the credit cap
    EXPECT_LE(graph.degree(p), cap + 2);
  }
}

// --------------------------------------------------------- churn + repair

TEST(Churn, JoinsEveryoneWithoutDepartures) {
  BootstrapFixture f(48, 79);
  sim::Simulator simulator;
  ChurnOptions options;  // no sessions
  ChurnModel churn(simulator, f.bootstrap, options, f.world.rng);
  std::vector<PeerId> order;
  for (PeerId p = 0; p < 48; ++p) order.push_back(p);
  churn.start(order);
  simulator.run();
  EXPECT_EQ(churn.stats().joins, 48u);
  EXPECT_EQ(churn.stats().graceful_leaves + churn.stats().failures, 0u);
  for (PeerId p = 0; p < 48; ++p) EXPECT_TRUE(f.bootstrap.is_joined(p));
}

TEST(Churn, SessionsEndInDepartures) {
  BootstrapFixture f(48, 83);
  sim::Simulator simulator;
  ChurnOptions options;
  options.mean_interarrival = sim::SimTime::seconds(0.5);
  options.mean_session = sim::SimTime::seconds(30.0);
  options.failure_fraction = 0.5;
  ChurnModel churn(simulator, f.bootstrap, options, f.world.rng);
  std::vector<PeerId> order;
  for (PeerId p = 0; p < 48; ++p) order.push_back(p);
  churn.start(order);
  simulator.run();
  EXPECT_EQ(churn.stats().joins, 48u);
  EXPECT_EQ(churn.stats().graceful_leaves + churn.stats().failures, 48u);
  EXPECT_GT(churn.stats().failures, 5u);  // ~half at p=0.5
  EXPECT_GT(churn.stats().graceful_leaves, 5u);
}

TEST(Maintenance, DetectsCrashAndRepairs) {
  BootstrapFixture f(64, 89);
  for (PeerId p = 0; p < 64; ++p) f.bootstrap.join(p);
  sim::Simulator simulator;
  MaintenanceOptions options;
  options.heartbeat_interval = sim::SimTime::seconds(10);
  options.epoch = sim::SimTime::seconds(40);
  MaintenanceProtocol maintenance(simulator, *f.world.population, f.graph,
                                  f.bootstrap, options);
  // Crash a well-connected peer.
  PeerId victim = 0;
  for (PeerId p = 0; p < 64; ++p) {
    if (f.graph.degree(p) > f.graph.degree(victim)) victim = p;
  }
  const auto dead_degree = f.graph.degree(victim);
  ASSERT_GT(dead_degree, 0u);
  f.bootstrap.fail(victim);
  maintenance.start(sim::SimTime::seconds(400));
  simulator.run_until(sim::SimTime::seconds(400));
  EXPECT_GT(maintenance.stats().epochs, 1u);
  EXPECT_GT(maintenance.stats().dead_links_removed, 0u);
  EXPECT_EQ(f.graph.degree(victim), 0u);       // fully cleaned up
  EXPECT_FALSE(f.cache.contains(victim));      // stale entry purged
  EXPECT_GT(maintenance.stats().heartbeat_messages, 0u);
}

TEST(Maintenance, EpochAdaptsUnderHeavyChurn) {
  BootstrapFixture f(96, 97);
  for (PeerId p = 0; p < 96; ++p) f.bootstrap.join(p);
  sim::Simulator simulator;
  MaintenanceOptions options;
  options.heartbeat_interval = sim::SimTime::seconds(5);
  options.epoch = sim::SimTime::seconds(60);
  options.min_epoch = sim::SimTime::seconds(10);
  options.churn_high_watermark = 2;
  MaintenanceProtocol maintenance(simulator, *f.world.population, f.graph,
                                  f.bootstrap, options);
  // Crash a third of the overlay at once.
  for (PeerId p = 0; p < 96; p += 3) f.bootstrap.fail(p);
  maintenance.start(sim::SimTime::seconds(200));
  simulator.run_until(sim::SimTime::seconds(200));
  EXPECT_LT(maintenance.current_epoch_length(), options.epoch);
}

}  // namespace
}  // namespace groupcast::overlay
