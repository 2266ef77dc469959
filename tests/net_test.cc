// Tests for the IP underlay: topology builder/generator, all-pairs
// routing (validated against brute-force Floyd–Warshall on random graphs),
// and the IP-multicast baseline.
#include <gtest/gtest.h>

#include <limits>

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
  // IpRouting promises it *exactly*: dist_ is double and symmetrized after
  // the per-source Dijkstra passes, so equal-cost tie-breaks and float
  // rounding cannot leave distance_ms(a, b) != distance_ms(b, a).
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    WaxmanConfig config;
    config.routers = 120;
    util::Rng rng(seed);
    const auto topo = generate_waxman(config, rng);
    const IpRouting routing(topo);
    for (RouterId a = 0; a < topo.router_count(); ++a) {
      for (RouterId b = a + 1; b < topo.router_count(); ++b) {
        EXPECT_EQ(routing.distance_ms(a, b), routing.distance_ms(b, a))
            << "seed=" << seed << " a=" << a << " b=" << b;
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
      EXPECT_NEAR(routing.distance_ms(a, b), reference[a][b], 1e-3)
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
    EXPECT_NEAR(sum, routing.distance_ms(a, b), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

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
