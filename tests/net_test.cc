// Tests for the IP underlay: topology builder/generator, IP
// routing (validated against brute-force Floyd–Warshall and a dense Dijkstra
// oracle on every pair, and against the oracle on a 1M-peer underlay),
// and the IP-multicast baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "net/multicast.h"
#include "net/routing.h"
#include "net/topology.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::net {
namespace {

TEST(TopologyBuilder, RejectsBadLinks) {
  UnderlayTopology::Builder builder;
  const auto a = builder.add_router(RouterKind::kTransit, 0);
  const auto b = builder.add_router(RouterKind::kStub, 0);
  EXPECT_THROW(builder.add_link(a, a, 1.0), PreconditionError);   // self loop
  EXPECT_THROW(builder.add_link(a, b, 0.0), PreconditionError);   // zero lat
  EXPECT_THROW(builder.add_link(a, 99, 1.0), PreconditionError);  // range
  builder.add_link(a, b, 1.0);
  EXPECT_THROW(builder.add_link(b, a, 2.0), PreconditionError);   // duplicate
}

TEST(TopologyBuilder, RejectsDisconnectedGraph) {
  UnderlayTopology::Builder builder;
  builder.add_router(RouterKind::kStub, 0);
  builder.add_router(RouterKind::kStub, 1);
  EXPECT_THROW(std::move(builder).build(), PreconditionError);
}

TEST(TopologyBuilder, AdjacencyIsSymmetric) {
  const auto topo = testing::line_topology(4);
  for (RouterId r = 0; r < 4; ++r) {
    for (const auto& [link, nbr] : topo.neighbors(r)) {
      bool back = false;
      for (const auto& [l2, n2] : topo.neighbors(nbr)) {
        if (n2 == r && l2 == link) back = true;
      }
      EXPECT_TRUE(back) << "link " << link << " not symmetric";
    }
  }
}

TEST(TransitStub, GeneratesExpectedCounts) {
  TransitStubConfig config;
  config.transit_domains = 3;
  config.routers_per_transit_domain = 2;
  config.stub_domains_per_transit_router = 2;
  config.routers_per_stub_domain = 5;
  util::Rng rng(11);
  const auto topo = generate_transit_stub(config, rng);
  EXPECT_EQ(topo.router_count(), config.total_routers());
  std::size_t transit = 0, stub = 0;
  for (RouterId r = 0; r < topo.router_count(); ++r) {
    (topo.router(r).kind == RouterKind::kTransit ? transit : stub) += 1;
  }
  EXPECT_EQ(transit, 6u);
  EXPECT_EQ(stub, 60u);
  EXPECT_EQ(topo.stub_routers().size(), 60u);
}

TEST(TransitStub, AlwaysConnectedAcrossSeeds) {
  TransitStubConfig config;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed);
    const auto topo = generate_transit_stub(config, rng);
    EXPECT_TRUE(topo.is_connected()) << "seed " << seed;
  }
}

TEST(TransitStub, LinkLatenciesWithinConfiguredRanges) {
  TransitStubConfig config;
  util::Rng rng(13);
  const auto topo = generate_transit_stub(config, rng);
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(l);
    const auto ka = topo.router(link.a).kind;
    const auto kb = topo.router(link.b).kind;
    if (ka == RouterKind::kTransit && kb == RouterKind::kTransit) {
      // Same transit domain -> intra range; different -> long-haul range.
      if (topo.router(link.a).domain == topo.router(link.b).domain) {
        EXPECT_GE(link.latency_ms, kIntraTransitLatency.min_ms);
        EXPECT_LE(link.latency_ms, kIntraTransitLatency.max_ms);
      } else {
        EXPECT_GE(link.latency_ms, kTransitTransitLatency.min_ms);
        EXPECT_LE(link.latency_ms, kTransitTransitLatency.max_ms);
      }
    } else if (ka == RouterKind::kStub && kb == RouterKind::kStub) {
      EXPECT_GE(link.latency_ms, kIntraStubLatency.min_ms);
      EXPECT_LE(link.latency_ms, kIntraStubLatency.max_ms);
    } else {
      EXPECT_GE(link.latency_ms, kTransitStubLatency.min_ms);
      EXPECT_LE(link.latency_ms, kTransitStubLatency.max_ms);
    }
  }
}

TEST(ScaleConfig, ScalesStubTierWithPeerCount) {
  const auto small = scale_config_for_peers(500);
  const auto large = scale_config_for_peers(32000);
  EXPECT_GT(large.total_routers(), small.total_routers());
  // Roughly one stub router per 24 peers at the large end.
  const auto stubs = large.total_routers() -
                     large.transit_domains * large.routers_per_transit_domain;
  EXPECT_GE(stubs, 32000u / 24u);
}

TEST(Routing, LineTopologyDistancesExact) {
  const auto topo = testing::line_topology(6);
  const IpRouting routing(topo);
  for (RouterId a = 0; a < 6; ++a) {
    for (RouterId b = 0; b < 6; ++b) {
      EXPECT_DOUBLE_EQ(routing.distance_ms(a, b),
                       std::abs(static_cast<int>(a) - static_cast<int>(b)));
    }
  }
}

TEST(Routing, PathEndpointsAndContiguity) {
  const auto topo = testing::line_topology(5);
  const IpRouting routing(topo);
  const auto path = routing.path(0, 4);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(path[i + 1], path[i] + 1);
  }
  EXPECT_EQ(routing.hop_count(0, 4), 4u);
  EXPECT_EQ(routing.hop_count(2, 2), 0u);
}

TEST(Routing, DistanceMatrixExactlySymmetric) {
  // Shortest-path distance is symmetric on an undirected underlay, and
  // IpRouting promises it *exactly*: its tables are double and
  // symmetrized after the per-source Dijkstra passes, and a cross-leaf
  // distance adds the two up-legs before the core entry, so equal-cost
  // tie-breaks and float rounding cannot leave distance_ms(a, b) !=
  // distance_ms(b, a).
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    WaxmanConfig config;
    config.routers = 120;
    util::Rng waxman_rng(seed);
    const auto waxman = generate_waxman(config, waxman_rng);
    util::Rng transit_stub_rng(seed);
    const auto transit_stub = generate_transit_stub({}, transit_stub_rng);
    for (const UnderlayTopology* topo : {&waxman, &transit_stub}) {
      const IpRouting routing(*topo);
      for (RouterId a = 0; a < topo->router_count(); ++a) {
        for (RouterId b = a + 1; b < topo->router_count(); ++b) {
          ASSERT_EQ(routing.distance_ms(a, b), routing.distance_ms(b, a))
              << "seed=" << seed << " routers=" << topo->router_count()
              << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(Routing, NextHopMovesTowardsDestination) {
  testing::SmallWorld world(4, 3);
  const auto& routing = *world.routing;
  const auto n = world.underlay->router_count();
  for (RouterId a = 0; a < n; a += 7) {
    for (RouterId b = 0; b < n; b += 5) {
      if (a == b) continue;
      const auto hop = routing.next_hop(a, b);
      // Moving to the next hop strictly reduces the remaining distance.
      EXPECT_LT(routing.distance_ms(hop, b), routing.distance_ms(a, b));
    }
  }
}

/// Brute-force Floyd–Warshall for validation.
std::vector<std::vector<double>> floyd_warshall(const UnderlayTopology& topo) {
  const std::size_t n = topo.router_count();
  std::vector<std::vector<double>> d(
      n, std::vector<double>(n, std::numeric_limits<double>::infinity()));
  for (std::size_t i = 0; i < n; ++i) d[i][i] = 0.0;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(l);
    d[link.a][link.b] = std::min(d[link.a][link.b], link.latency_ms);
    d[link.b][link.a] = std::min(d[link.b][link.a], link.latency_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

class RoutingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingPropertyTest, DijkstraMatchesFloydWarshall) {
  TransitStubConfig config;
  config.transit_domains = 2;
  config.routers_per_transit_domain = 2;
  config.stub_domains_per_transit_router = 2;
  config.routers_per_stub_domain = 4;
  util::Rng rng(GetParam());
  const auto topo = generate_transit_stub(config, rng);
  const IpRouting routing(topo);
  const auto reference = floyd_warshall(topo);
  for (RouterId a = 0; a < topo.router_count(); ++a) {
    for (RouterId b = 0; b < topo.router_count(); ++b) {
      EXPECT_NEAR(routing.distance_ms(a, b), reference[a][b], 1e-9)
          << a << "->" << b;
    }
  }
}

TEST_P(RoutingPropertyTest, PathLatencySumsEqualDistance) {
  TransitStubConfig config;
  config.transit_domains = 2;
  config.routers_per_transit_domain = 2;
  config.stub_domains_per_transit_router = 2;
  config.routers_per_stub_domain = 3;
  util::Rng rng(GetParam() + 1000);
  const auto topo = generate_transit_stub(config, rng);
  const IpRouting routing(topo);
  util::Rng picker(GetParam());
  for (int s = 0; s < 40; ++s) {
    const auto a = static_cast<RouterId>(
        picker.uniform_index(topo.router_count()));
    const auto b = static_cast<RouterId>(
        picker.uniform_index(topo.router_count()));
    double sum = 0.0;
    routing.for_each_path_link(
        a, b, [&](LinkId l) { sum += topo.link(l).latency_ms; });
    EXPECT_NEAR(sum, routing.distance_ms(a, b), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Test-only oracle: plain Dijkstra from `src` over the whole underlay,
/// with no hierarchy and no shared tables.
std::vector<double> oracle_from(const UnderlayTopology& topo, RouterId src) {
  std::vector<double> dist(topo.router_count(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, RouterId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, at] = heap.top();
    heap.pop();
    if (d > dist[at]) continue;
    for (const auto& [link, nbr] : topo.neighbors(at)) {
      const double cand = d + topo.link(link).latency_ms;
      if (cand < dist[nbr]) {
        dist[nbr] = cand;
        heap.emplace(cand, nbr);
      }
    }
  }
  return dist;
}

/// Sum of link latencies along IpRouting's walk from `a` to `b`.
double walked_ms(const IpRouting& routing, RouterId a, RouterId b) {
  double sum = 0.0;
  routing.for_each_path_link(a, b, [&](LinkId l) {
    sum += routing.topology().link(l).latency_ms;
  });
  return sum;
}

/// Largest disagreements of `routing` over the pairs (a, b) for every
/// `a` in `sources` and every b: against the dense oracle, between the
/// two directions, and between a path walk's link sum and distance_ms.
struct OracleGap {
  double distance = 0.0;
  double walk = 0.0;
  std::size_t asymmetric = 0;
  std::size_t pairs = 0;
};

OracleGap oracle_gap(const IpRouting& routing,
                     const std::vector<RouterId>& sources,
                     std::size_t walk_stride = 1) {
  const auto& topo = routing.topology();
  OracleGap gap;
  for (const RouterId a : sources) {
    const auto reference = oracle_from(topo, a);
    for (RouterId b = 0; b < topo.router_count(); ++b) {
      const double d = routing.distance_ms(a, b);
      gap.distance = std::max(gap.distance, std::abs(d - reference[b]));
      if (d != routing.distance_ms(b, a)) ++gap.asymmetric;
      if (b % walk_stride == 0) {
        gap.walk = std::max(gap.walk, std::abs(walked_ms(routing, a, b) - d));
      }
      ++gap.pairs;
    }
  }
  return gap;
}

std::vector<RouterId> all_routers(const UnderlayTopology& topo) {
  std::vector<RouterId> out(topo.router_count());
  for (RouterId r = 0; r < out.size(); ++r) out[r] = r;
  return out;
}

void expect_exact_on_every_pair(const IpRouting& routing) {
  const auto gap = oracle_gap(routing, all_routers(routing.topology()));
  EXPECT_LE(gap.distance, 1e-9);
  EXPECT_LE(gap.walk, 1e-9);
  EXPECT_EQ(gap.asymmetric, 0u);
}

class RoutingOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingOracleTest, TransitStubMatchesDenseDijkstraOnEveryPair) {
  // Four shapes in rotation, the 20k-peer one (976 routers) among them.
  const std::uint64_t seed = GetParam();
  TransitStubConfig config;
  switch (seed % 4) {
    case 0: config = scale_config_for_peers(20000); break;
    case 1: break;  // the default 592-router shape
    case 2: config = scale_config_for_peers(2000); break;
    default:
      config.transit_domains = 2;
      config.routers_per_transit_domain = 2;
      config.stub_domains_per_transit_router = 2;
      config.routers_per_stub_domain = 4;
  }
  util::Rng rng(seed);
  const auto topo = generate_transit_stub(config, rng);
  if (seed % 4 == 0) {
    ASSERT_EQ(topo.router_count(), 976u);
  }
  const IpRouting routing(topo);
  // Every stub domain hangs off one gateway link: all of them are leaves
  // and the transit routers are the whole core.
  const std::size_t transit =
      config.transit_domains * config.routers_per_transit_domain;
  EXPECT_EQ(routing.core_routers(), transit);
  EXPECT_EQ(routing.leaf_count(),
            transit * config.stub_domains_per_transit_router);
  expect_exact_on_every_pair(routing);
}

TEST_P(RoutingOracleTest, WaxmanHasNoLeavesAndMatchesDenseDijkstra) {
  WaxmanConfig config;
  config.routers = 150;
  util::Rng rng(GetParam());
  const auto topo = generate_waxman(config, rng);
  const IpRouting routing(topo);
  EXPECT_EQ(routing.leaf_count(), 0u);
  EXPECT_EQ(routing.core_routers(), topo.router_count());
  expect_exact_on_every_pair(routing);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingOracleTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(RoutingOracle, LeavesAreFoundFromLinksNotKinds) {
  // Transit ring T0-T3; stub domain 0 hangs off T0 (a leaf); stub domain
  // 1 is multi-homed to T1 and T3 (core); stub domain 2 is one router off
  // domain 1 (a leaf whose core router is a stub router); the two routers
  // labelled stub domain 3 hang off different transit routers (core).
  UnderlayTopology::Builder b;
  std::vector<RouterId> t;
  for (std::uint32_t i = 0; i < 4; ++i) {
    t.push_back(b.add_router(RouterKind::kTransit, i / 2));
  }
  const auto stub = [&b](std::uint32_t domain) {
    return b.add_router(RouterKind::kStub, domain);
  };
  const RouterId s0 = stub(0), s1 = stub(0), s2 = stub(0);
  const RouterId u0 = stub(1), u1 = stub(1), u2 = stub(1);
  const RouterId v0 = stub(2);
  const RouterId w0 = stub(3), w1 = stub(3);
  b.add_link(t[0], t[1], 40.0);
  b.add_link(t[1], t[2], 10.0);
  b.add_link(t[2], t[3], 40.0);
  b.add_link(t[3], t[0], 10.0);
  b.add_link(s0, s1, 2.0);
  b.add_link(s1, s2, 3.0);
  b.add_link(s1, t[0], 7.0);
  b.add_link(u0, u1, 2.0);
  b.add_link(u1, u2, 2.0);
  b.add_link(u0, t[1], 5.0);
  b.add_link(u2, t[3], 6.0);
  b.add_link(v0, u1, 4.0);
  b.add_link(w0, t[2], 3.0);
  b.add_link(w1, t[3], 3.0);
  const auto topo = std::move(b).build();
  const IpRouting routing(topo);
  EXPECT_EQ(routing.leaf_count(), 2u);
  EXPECT_EQ(routing.core_routers(), 4u + 3u + 2u);
  expect_exact_on_every_pair(routing);
  // Through the multi-homed domain: s2 -> s1 -> T0 -> T3 -> u2 -> u1 -> v0.
  EXPECT_DOUBLE_EQ(routing.distance_ms(s2, v0), 3 + 7 + 10 + 6 + 2 + 4);
  EXPECT_EQ(routing.path(s2, v0),
            (std::vector<RouterId>{s2, s1, t[0], t[3], u2, u1, v0}));
}

TEST(RoutingOracle, TwoStubDomainsJoinedByOneLinkAreAllCore) {
  // Each domain's only outside link lands in the other: neither can hang
  // off a core router, so both route through the dense core table.
  UnderlayTopology::Builder b;
  const RouterId a0 = b.add_router(RouterKind::kStub, 0);
  const RouterId a1 = b.add_router(RouterKind::kStub, 0);
  const RouterId b0 = b.add_router(RouterKind::kStub, 1);
  const RouterId b1 = b.add_router(RouterKind::kStub, 1);
  b.add_link(a0, a1, 1.5);
  b.add_link(a1, b0, 9.0);
  b.add_link(b0, b1, 2.5);
  const auto topo = std::move(b).build();
  const IpRouting routing(topo);
  EXPECT_EQ(routing.leaf_count(), 0u);
  EXPECT_EQ(routing.core_routers(), 4u);
  expect_exact_on_every_pair(routing);
  EXPECT_DOUBLE_EQ(routing.distance_ms(a0, b1), 13.0);
}

TEST(RoutingScale, MemoryBytesCoverLeafAndCoreTables) {
  // 20k peers: 64 leaves of 15 routers and a 16-router core, against
  // 12 B × 976² = 11.4 MB for dense tables.
  util::Rng rng(20000);
  const auto topo = generate_transit_stub(scale_config_for_peers(20000), rng);
  const IpRouting routing(topo);
  const std::size_t tables = 64 * 15 * 15 * 12 + 16 * 16 * 12;
  EXPECT_GE(routing.memory_bytes(), tables);
  EXPECT_LE(routing.memory_bytes(), std::size_t{256} << 10);
}

TEST(RoutingScale, MillionPeerShapeRoutesInSmallTables) {
  // The underlay of a 1M-peer world: 42,256 routers, where dense R×R
  // tables would take 21.4 GB.
  util::Rng rng(1000000);
  const auto topo =
      generate_transit_stub(scale_config_for_peers(1'000'000), rng);
  ASSERT_EQ(topo.router_count(), 42256u);
  const IpRouting routing(topo);
  EXPECT_LE(routing.memory_bytes(), std::size_t{32} << 20);
  EXPECT_EQ(routing.core_routers(), 16u);
  // Oracle Dijkstra from a transit router and three stub routers, against
  // every destination; path walks on every 40th.
  util::Rng picker(3);
  std::vector<RouterId> sources{0};
  for (int i = 0; i < 3; ++i) {
    sources.push_back(static_cast<RouterId>(
        16 + picker.uniform_index(topo.router_count() - 16)));
  }
  const auto gap = oracle_gap(routing, sources, 40);
  EXPECT_GE(gap.pairs, 1000u);
  EXPECT_LE(gap.distance, 1e-9);
  EXPECT_LE(gap.walk, 1e-9);
  EXPECT_EQ(gap.asymmetric, 0u);
}

TEST(Multicast, DelayEqualsUnicastShortestPath) {
  testing::SmallWorld world(4, 7);
  const auto& routing = *world.routing;
  const std::vector<RouterId> receivers{3, 9, 15, 21};
  const IpMulticastTree tree(routing, 0, receivers);
  for (const auto r : receivers) {
    EXPECT_DOUBLE_EQ(tree.delay_ms_to(r), routing.distance_ms(0, r));
  }
}

TEST(Multicast, LinkCountAtMostSumOfPathsAndAtLeastLongestPath) {
  testing::SmallWorld world(4, 9);
  const auto& routing = *world.routing;
  std::vector<RouterId> receivers;
  for (RouterId r = 1; r < 20; r += 3) receivers.push_back(r);
  const IpMulticastTree tree(routing, 0, receivers);
  std::size_t sum = 0, longest = 0;
  for (const auto r : receivers) {
    const auto hops = routing.hop_count(0, r);
    sum += hops;
    longest = std::max(longest, hops);
  }
  EXPECT_LE(tree.link_message_count(), sum);   // sharing can only reduce
  EXPECT_GE(tree.link_message_count(), longest);
}

TEST(Multicast, DuplicateReceiversCountOnceInLinks) {
  const auto topo = testing::line_topology(5);
  const IpRouting routing(topo);
  const IpMulticastTree once(routing, 0, {4});
  const IpMulticastTree twice(routing, 0, {4, 4, 4});
  EXPECT_EQ(once.link_message_count(), twice.link_message_count());
  // Average delay counts per receiver entry (per peer).
  EXPECT_DOUBLE_EQ(twice.average_delay_ms(), once.average_delay_ms());
}

TEST(Multicast, SourceOnlyReceiverYieldsZeroLinks) {
  const auto topo = testing::line_topology(3);
  const IpRouting routing(topo);
  const IpMulticastTree tree(routing, 1, {1});
  EXPECT_EQ(tree.link_message_count(), 0u);
  EXPECT_DOUBLE_EQ(tree.average_delay_ms(), 0.0);
}

TEST(Multicast, LineTopologyExactSharing) {
  // Receivers 2, 3, 4 on a line share the prefix: links = 4 (1 per hop of
  // the longest path), not 2+3+4.
  const auto topo = testing::line_topology(5);
  const IpRouting routing(topo);
  const IpMulticastTree tree(routing, 0, {2, 3, 4});
  EXPECT_EQ(tree.link_message_count(), 4u);
}

}  // namespace
}  // namespace groupcast::net
