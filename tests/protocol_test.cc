// Tests for the announcement (SSA/NSSA) and subscription protocols and the
// spanning tree they grow.
#include <gtest/gtest.h>

#include <set>

#include "core/advertisement.h"
#include "core/spanning_tree.h"
#include "core/subscription.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::kNoPeer;
using overlay::PeerId;

/// A populated small world with a fully joined GroupCast overlay.
struct ProtocolFixture {
  testing::SmallWorld world;
  overlay::OverlayGraph graph;
  sim::Simulator simulator;

  explicit ProtocolFixture(std::size_t peers = 80, std::uint64_t seed = 7)
      : world(peers, seed), graph(peers) {
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    for (PeerId p = 0; p < peers; ++p) bootstrap.join(p);
  }

  AdvertisementState announce(AnnouncementScheme scheme, PeerId rendezvous,
                              MessageStats* stats = nullptr,
                              std::size_t ttl = 10) {
    AdvertisementOptions options;
    options.scheme = scheme;
    options.ttl = ttl;
    AdvertisementEngine engine(simulator, *world.population, graph, options,
                               world.rng);
    return engine.announce(rendezvous, stats);
  }
};

// ----------------------------------------------------------- spanning tree

TEST(SpanningTree, RootIsItsOwnParent) {
  SpanningTree tree(5);
  EXPECT_EQ(tree.root(), 5u);
  EXPECT_TRUE(tree.contains(5));
  EXPECT_EQ(tree.parent(5), 5u);
  EXPECT_EQ(tree.depth(5), 0u);
  EXPECT_TRUE(tree.is_consistent());
}

TEST(SpanningTree, AttachBuildsParentChildLinks) {
  SpanningTree tree(0);
  tree.attach(1, 0);
  tree.attach(2, 1);
  tree.attach(3, 1);
  EXPECT_EQ(tree.parent(2), 1u);
  EXPECT_EQ(tree.depth(2), 2u);
  EXPECT_EQ(tree.children(1).size(), 2u);
  EXPECT_EQ(tree.node_count(), 4u);
  EXPECT_EQ(tree.max_depth(), 2u);
  EXPECT_TRUE(tree.is_consistent());
}

TEST(SpanningTree, AttachRequiresParentOnTree) {
  SpanningTree tree(0);
  EXPECT_THROW(tree.attach(2, 1), PreconditionError);
  EXPECT_THROW(tree.attach(1, 1), PreconditionError);
}

TEST(SpanningTree, ReattachIsIgnored) {
  SpanningTree tree(0);
  tree.attach(1, 0);
  tree.attach(2, 0);
  tree.attach(1, 2);  // already attached under 0: kept there
  EXPECT_EQ(tree.parent(1), 0u);
  EXPECT_TRUE(tree.is_consistent());
}

TEST(SpanningTree, SubscribersAreTracked) {
  SpanningTree tree(0);
  tree.attach(1, 0);
  tree.mark_subscriber(1);
  EXPECT_TRUE(tree.is_subscriber(1));
  EXPECT_FALSE(tree.is_subscriber(0));
  EXPECT_EQ(tree.subscriber_count(), 1u);
  EXPECT_THROW(tree.mark_subscriber(9), PreconditionError);
}

// ----------------------------------------------------------- advertisement

TEST(Advertisement, NssaReachesEveryConnectedPeer) {
  ProtocolFixture f(60, 11);
  ASSERT_TRUE(f.graph.connectivity().connected);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0);
  EXPECT_DOUBLE_EQ(advert.receiving_rate(), 1.0);
  for (PeerId p = 0; p < 60; ++p) EXPECT_TRUE(advert.received(p));
}

TEST(Advertisement, ParentPointersFormTreeToRendezvous) {
  ProtocolFixture f(60, 13);
  const auto advert = f.announce(AnnouncementScheme::kSsaUtility, 3);
  EXPECT_EQ(advert.parent[3], 3u);
  for (PeerId p = 0; p < 60; ++p) {
    if (!advert.received(p) || p == 3) continue;
    // Walk to the rendezvous without cycles.
    PeerId at = p;
    std::size_t steps = 0;
    while (at != 3u) {
      const auto up = advert.parent[at];
      ASSERT_NE(up, kNoPeer);
      // Parents must be overlay neighbours (messages travel on links).
      EXPECT_TRUE(f.graph.connected(at, up));
      at = up;
      ASSERT_LE(++steps, 60u) << "cycle in advert parents";
    }
  }
}

TEST(Advertisement, ArrivalTimesIncreaseAlongPaths) {
  ProtocolFixture f(60, 17);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0);
  for (PeerId p = 1; p < 60; ++p) {
    if (!advert.received(p)) continue;
    const auto up = advert.parent[p];
    if (up == p) continue;
    EXPECT_GT(advert.arrival[p], advert.arrival[up]);
  }
}

TEST(Advertisement, SsaSendsFewerMessagesThanNssa) {
  ProtocolFixture f(80, 19);
  const auto nssa = f.announce(AnnouncementScheme::kNssa, 0);
  const auto ssa = f.announce(AnnouncementScheme::kSsaUtility, 0);
  const auto ssa_random = f.announce(AnnouncementScheme::kSsaRandom, 0);
  EXPECT_LT(ssa.messages, nssa.messages);
  EXPECT_LT(ssa_random.messages, nssa.messages);
}

TEST(Advertisement, TtlBoundsPropagationDepth) {
  ProtocolFixture f(80, 23);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0, nullptr, 2);
  // With TTL 2 nobody beyond 2 overlay hops can receive.  Verify via BFS.
  std::vector<int> hops(80, -1);
  hops[0] = 0;
  std::vector<PeerId> frontier{0};
  for (int level = 0; level < 2; ++level) {
    std::vector<PeerId> next;
    for (const auto u : frontier) {
      for (const auto v : f.graph.neighbors(u)) {
        if (hops[v] < 0) {
          hops[v] = level + 1;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  for (PeerId p = 0; p < 80; ++p) {
    if (advert.received(p)) {
      EXPECT_GE(hops[p], 0) << "peer " << p << " unreachable in 2 hops";
    }
  }
}

TEST(Advertisement, MessageStatsMatchStateCount) {
  ProtocolFixture f(60, 29);
  MessageStats stats;
  const auto advert = f.announce(AnnouncementScheme::kSsaUtility, 0, &stats);
  EXPECT_EQ(stats.advertisement_messages(), advert.messages);
}

TEST(Advertisement, DeterministicForSameSeed) {
  ProtocolFixture a(50, 31), b(50, 31);
  const auto adv_a = a.announce(AnnouncementScheme::kSsaUtility, 2);
  const auto adv_b = b.announce(AnnouncementScheme::kSsaUtility, 2);
  EXPECT_EQ(adv_a.messages, adv_b.messages);
  EXPECT_EQ(adv_a.parent, adv_b.parent);
}

TEST(Advertisement, SchemeNames) {
  EXPECT_STREQ(to_string(AnnouncementScheme::kNssa), "NSSA");
  EXPECT_STREQ(to_string(AnnouncementScheme::kSsaUtility), "SSA");
  EXPECT_STREQ(to_string(AnnouncementScheme::kSsaRandom), "SSA-random");
}

// ------------------------------------------------------------ subscription

TEST(Subscription, AdvertHolderJoinsViaReversePath) {
  ProtocolFixture f(60, 37);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0);
  SpanningTree tree(0);
  SubscriptionProtocol protocol(*f.world.population, f.graph,
                                SubscriptionOptions{});
  // Everyone received NSSA; pick a far peer.
  const auto outcome = protocol.subscribe(advert, 42, tree);
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.had_advertisement);
  EXPECT_EQ(outcome.search_messages, 0u);
  EXPECT_GT(outcome.join_messages, 0u);
  EXPECT_TRUE(tree.contains(42));
  EXPECT_TRUE(tree.is_subscriber(42));
  EXPECT_TRUE(tree.is_consistent());
  // The whole reverse path is on the tree.
  PeerId at = 42;
  while (at != 0u) {
    EXPECT_TRUE(tree.contains(at));
    at = advert.parent[at];
  }
}

TEST(Subscription, TreeFollowsAdvertisementParents) {
  ProtocolFixture f(60, 41);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 5);
  SpanningTree tree(5);
  SubscriptionProtocol protocol(*f.world.population, f.graph,
                                SubscriptionOptions{});
  std::vector<PeerId> subscribers{10, 20, 30, 40, 50};
  const auto report = protocol.subscribe_all(advert, subscribers, tree);
  EXPECT_DOUBLE_EQ(report.success_rate(), 1.0);
  for (const auto s : subscribers) {
    EXPECT_EQ(tree.parent(s), advert.parent[s]);
  }
}

TEST(Subscription, SecondSubscriberStopsAtExistingTree) {
  ProtocolFixture f(60, 43);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0);
  SpanningTree tree(0);
  SubscriptionProtocol protocol(*f.world.population, f.graph,
                                SubscriptionOptions{});
  // Subscribe a peer, then its advert-parent: the parent is already a
  // relay, so its join costs no messages beyond the ack.
  const auto first = protocol.subscribe(advert, 42, tree);
  ASSERT_TRUE(first.success);
  const auto relay = advert.parent[42];
  if (relay != 0u) {
    const auto second = protocol.subscribe(advert, relay, tree);
    EXPECT_TRUE(second.success);
    EXPECT_EQ(second.join_messages, 0u);  // already on the tree
    EXPECT_TRUE(tree.is_subscriber(relay));
  }
}

TEST(Subscription, RippleSearchFindsNearbyHolder) {
  // Hand-built line overlay: 0 - 1 - 2 - 3.  Advertise only to {0, 1};
  // peer 3 is two hops from holder 1 and must succeed at TTL 2.
  testing::SmallWorld world(4, 47);
  overlay::OverlayGraph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  AdvertisementState advert;
  advert.rendezvous = 0;
  advert.parent = {0, 0, kNoPeer, kNoPeer};
  advert.arrival.assign(4, sim::SimTime::zero());
  SpanningTree tree(0);
  SubscriptionProtocol protocol(*world.population, graph,
                                SubscriptionOptions{});
  const auto outcome = protocol.subscribe(advert, 3, tree);
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.had_advertisement);
  EXPECT_GT(outcome.search_messages, 0u);
  EXPECT_EQ(outcome.attach_point, 1u);
  EXPECT_TRUE(tree.contains(3));
  EXPECT_TRUE(tree.contains(1));
  EXPECT_TRUE(tree.is_consistent());
}

TEST(Subscription, RippleSearchFailsBeyondTtl) {
  // Line 0 - 1 - 2 - 3 - 4, holder only at 0 and 1; peer 4 is 3 hops from
  // the nearest holder: TTL-2 search must fail.
  testing::SmallWorld world(5, 53);
  overlay::OverlayGraph graph(5);
  for (PeerId p = 0; p + 1 < 5; ++p) graph.add_edge(p, p + 1);
  AdvertisementState advert;
  advert.rendezvous = 0;
  advert.parent = {0, 0, kNoPeer, kNoPeer, kNoPeer};
  advert.arrival.assign(5, sim::SimTime::zero());
  SpanningTree tree(0);
  SubscriptionProtocol protocol(*world.population, graph,
                                SubscriptionOptions{});
  const auto outcome = protocol.subscribe(advert, 4, tree);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(tree.contains(4));
}

TEST(Subscription, ResponseTimeIsRoundTripToAttachPoint) {
  ProtocolFixture f(60, 59);
  const auto advert = f.announce(AnnouncementScheme::kNssa, 0);
  SpanningTree tree(0);
  SubscriptionProtocol protocol(*f.world.population, f.graph,
                                SubscriptionOptions{});
  const auto outcome = protocol.subscribe(advert, 30, tree);
  ASSERT_TRUE(outcome.had_advertisement);
  EXPECT_NEAR(outcome.response_time_ms,
              2.0 * f.world.population->latency_ms(30, outcome.attach_point),
              1e-9);
}

TEST(Subscription, ReportAggregates) {
  SubscriptionReport report;
  report.outcomes.push_back(
      {0, true, true, 10.0, 0, 2, 1});
  report.outcomes.push_back(
      {1, false, false, 0.0, 7, 0, kNoPeer});
  report.outcomes.push_back(
      {2, true, false, 30.0, 5, 3, 1});
  EXPECT_NEAR(report.success_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.average_response_time_ms(), 20.0, 1e-12);
  EXPECT_EQ(report.total_messages(), 17u);
}

TEST(Subscription, RendezvousSubscribingIsTrivial) {
  ProtocolFixture f(40, 61);
  const auto advert = f.announce(AnnouncementScheme::kSsaUtility, 7);
  SpanningTree tree(7);
  SubscriptionProtocol protocol(*f.world.population, f.graph,
                                SubscriptionOptions{});
  const auto outcome = protocol.subscribe(advert, 7, tree);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.join_messages + outcome.search_messages, 0u);
  EXPECT_TRUE(tree.is_subscriber(7));
}

}  // namespace
}  // namespace groupcast::core
