// Tests for the two-tier supernode overlay extension.
#include <gtest/gtest.h>

#include "core/middleware.h"
#include "overlay/supernode.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::overlay {
namespace {

struct SupernodeFixture {
  testing::SmallWorld world;
  OverlayGraph graph;
  HostCacheServer cache;
  SupernodeLayout layout;

  explicit SupernodeFixture(std::size_t peers = 200, std::uint64_t seed = 3)
      : world(peers, seed),
        graph(peers),
        cache(*world.population, HostCacheOptions{}, world.rng),
        layout(build_supernode_overlay(*world.population, graph, cache,
                                       world.rng)) {}
};

TEST(Supernode, TierAssignmentFollowsCapacity) {
  SupernodeFixture f;
  for (const auto sn : f.layout.supernodes) {
    EXPECT_GE(f.world.population->info(sn).capacity,
              kSupernodeCapacityThreshold);
    EXPECT_TRUE(f.layout.is_supernode[sn]);
  }
  for (const auto leaf : f.layout.leaves) {
    EXPECT_LT(f.world.population->info(leaf).capacity,
              kSupernodeCapacityThreshold);
    EXPECT_FALSE(f.layout.is_supernode[leaf]);
  }
  EXPECT_EQ(f.layout.supernodes.size() + f.layout.leaves.size(), 200u);
  // Table 1: 100x + 1000x + 10000x ~ 35% of peers.
  EXPECT_NEAR(f.layout.core_fraction(), 0.35, 0.12);
}

TEST(Supernode, CoreJoinsAreLoggedOncePerSupernode) {
  SupernodeFixture f;
  ASSERT_EQ(f.layout.core_joins.size(), f.layout.supernodes.size());
  std::vector<char> seen(200, 0);
  for (const auto& join : f.layout.core_joins) {
    EXPECT_TRUE(f.layout.is_supernode[join.peer]);
    EXPECT_FALSE(seen[join.peer]) << "peer " << join.peer << " joined twice";
    seen[join.peer] = 1;
  }
  // The first core joiner finds nobody to link to.
  EXPECT_EQ(f.layout.core_joins.front().out_links, 0u);
}

TEST(Supernode, LeavesOnlyConnectToSupernodes) {
  SupernodeFixture f;
  for (const auto leaf : f.layout.leaves) {
    const auto nbrs = f.graph.neighbors(leaf);
    EXPECT_GE(nbrs.size(), 1u);
    EXPECT_LE(f.graph.out_neighbors(leaf).size(), kLeafLinks);
    for (const auto n : nbrs) {
      EXPECT_TRUE(f.layout.is_supernode[n])
          << "leaf " << leaf << " linked to leaf " << n;
    }
  }
}

TEST(Supernode, GraphIsConnected) {
  SupernodeFixture f;
  EXPECT_TRUE(f.graph.connectivity().connected);
}

TEST(Supernode, EveryPeerIsInHostCache) {
  SupernodeFixture f;
  for (PeerId p = 0; p < 200; ++p) EXPECT_TRUE(f.cache.contains(p));
}

TEST(Supernode, RejectsNonEmptyGraphAndEmptyCore) {
  testing::SmallWorld world(32, 5);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  OverlayGraph dirty(32);
  dirty.add_edge(0, 1);
  EXPECT_THROW(
      build_supernode_overlay(*world.population, dirty, cache, world.rng),
      PreconditionError);
  // Table 1 puts 65% of peers below the threshold, so some three-peer
  // world has no peer that qualifies for the core tier.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    testing::SmallWorld tiny(3, seed);
    bool any_qualifies = false;
    for (const auto& peer : tiny.population->peers()) {
      any_qualifies |= peer.capacity >= kSupernodeCapacityThreshold;
    }
    if (any_qualifies) continue;
    HostCacheServer tiny_cache(*tiny.population, HostCacheOptions{},
                               tiny.rng);
    OverlayGraph graph(3);
    EXPECT_THROW(
        build_supernode_overlay(*tiny.population, graph, tiny_cache, tiny.rng),
        PreconditionError);
    return;
  }
  FAIL() << "every seeded three-peer world has a supernode";
}

TEST(Supernode, MiddlewarePipelineRunsOnTwoTiers) {
  core::MiddlewareConfig config;
  config.peer_count = 300;
  config.seed = 7;
  config.overlay = core::OverlayKind::kSupernode;
  core::GroupCastMiddleware middleware(config);
  EXPECT_TRUE(middleware.graph().connectivity().connected);
  EXPECT_FALSE(middleware.supernode_layout().supernodes.empty());

  auto group = middleware.establish_random_group(40);
  EXPECT_GT(group.report.success_rate(), 0.9);
  EXPECT_TRUE(group.tree.is_consistent());

  const auto session = middleware.session(group);
  const auto result = session.disseminate(group.advert.rendezvous);
  EXPECT_GT(result.payload_messages, 0u);

  // Leaves never relay for others: every forwarding node with more than
  // one tree link is a supernode, except leaf subscribers passing the
  // payload up/down their single link.
  for (const auto& [node, fanout] : result.forward_fanout) {
    if (middleware.supernode_layout().is_supernode[node]) continue;
    EXPECT_LE(fanout, 1u) << "leaf " << node << " relays for others";
  }
}

TEST(Supernode, FewerWeakRelaysThanFlatOverlay) {
  auto weak_relay_fraction = [](core::OverlayKind kind) {
    core::MiddlewareConfig config;
    config.peer_count = 400;
    config.seed = 11;
    config.overlay = kind;
    core::GroupCastMiddleware middleware(config);
    auto group = middleware.establish_random_group(60);
    std::size_t weak = 0, relays = 0;
    for (const auto node : group.tree.nodes()) {
      if (group.tree.children(node).empty()) continue;
      ++relays;
      if (middleware.population().info(node).capacity < 100.0) ++weak;
    }
    return relays == 0 ? 0.0
                       : static_cast<double>(weak) /
                             static_cast<double>(relays);
  };
  EXPECT_LT(weak_relay_fraction(core::OverlayKind::kSupernode),
            weak_relay_fraction(core::OverlayKind::kGroupCast) + 1e-9);
}

}  // namespace
}  // namespace groupcast::overlay
