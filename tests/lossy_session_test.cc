// Tests for capacity-constrained (lossy) dissemination.
#include <gtest/gtest.h>

#include "core/group_session.h"
#include "core/middleware.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

struct LossyFixture {
  testing::SmallWorld world;
  SpanningTree tree;

  LossyFixture() : world(8, 3), tree(0) {
    tree.attach(1, 0);
    tree.attach(2, 1);
    tree.attach(3, 1);
    tree.mark_subscriber(2);
    tree.mark_subscriber(3);
  }
};

TEST(LossySession, NoLossWhenCapacitySuffices) {
  LossyFixture f;
  const GroupSession session(*f.world.population, f.tree);
  GroupSession::LossyOptions options;
  // A vanishing stream rate makes every relay's sustainable fan-out huge.
  options.stream_units = 1e-6;
  util::Rng rng(1);
  const auto result = session.disseminate_lossy(0, options, rng);
  EXPECT_EQ(result.subscribers_reached, 2u);
  EXPECT_EQ(result.copies_dropped, 0u);
  EXPECT_DOUBLE_EQ(result.delivery_ratio(), 1.0);
}

TEST(LossySession, TotalLossWhenStreamDwarfsCapacity) {
  LossyFixture f;
  const GroupSession session(*f.world.population, f.tree);
  GroupSession::LossyOptions options;
  options.stream_units = 1e12;  // nobody can forward anything
  util::Rng rng(2);
  const auto result = session.disseminate_lossy(0, options, rng);
  EXPECT_EQ(result.subscribers_reached, 0u);
  EXPECT_GT(result.copies_dropped, 0u);
  EXPECT_DOUBLE_EQ(result.delivery_ratio(), 0.0);
}

TEST(LossySession, DropCutsWholeSubtree) {
  // Chain 0 -> 1 -> 2 -> 3 with subscribers at 2 and 3.  If the copy on
  // edge (1,2) is dropped, 3 cannot be reached either.
  testing::SmallWorld world(8, 5);
  SpanningTree tree(0);
  tree.attach(1, 0);
  tree.attach(2, 1);
  tree.attach(3, 2);
  tree.mark_subscriber(2);
  tree.mark_subscriber(3);
  const GroupSession session(*world.population, tree);
  GroupSession::LossyOptions options;
  options.stream_units = 1e12;
  util::Rng rng(3);
  const auto result = session.disseminate_lossy(0, options, rng);
  // The very first copy (0 -> 1) is dropped: one drop, nothing reached,
  // and crucially no "partial" deliveries below the cut.
  EXPECT_EQ(result.subscribers_reached, 0u);
  EXPECT_EQ(result.copies_dropped, 1u);
}

TEST(LossySession, DeliveryRatioMatchesForwardProbabilityOnStar) {
  // A star rooted at a capacity-c peer with n children loses each child
  // independently with probability 1 - c/n.
  testing::SmallWorld world(64, 7);
  // Find a 10x-capacity peer to root the star at.
  PeerId root = overlay::kNoPeer;
  for (PeerId p = 0; p < 64; ++p) {
    if (world.population->info(p).capacity == 10.0) {
      root = p;
      break;
    }
  }
  ASSERT_NE(root, overlay::kNoPeer);
  SpanningTree tree(root);
  std::size_t children = 0;
  for (PeerId p = 0; p < 64 && children < 40; ++p) {
    if (p == root) continue;
    tree.attach(p, root);
    tree.mark_subscriber(p);
    ++children;
  }
  const GroupSession session(*world.population, tree);
  GroupSession::LossyOptions options;
  options.stream_units = 1.0;  // sustainable fan-out 10 of 40 -> p = 0.25
  util::Rng rng(11);
  double total_ratio = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    total_ratio += session.disseminate_lossy(root, options, rng)
                       .delivery_ratio() /
                   trials;
  }
  EXPECT_NEAR(total_ratio, 0.25, 0.03);
}

TEST(LossySession, GroupCastBeatsRandomOverlayOnDelivery) {
  auto delivery = [](OverlayKind kind) {
    MiddlewareConfig config;
    config.peer_count = 300;
    config.seed = 13;
    config.overlay = kind;
    GroupCastMiddleware middleware(config);
    auto group = middleware.establish_random_group(60);
    const auto session = middleware.session(group);
    util::Rng rng(17);
    GroupSession::LossyOptions options;
    options.stream_units = 1.0;
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      total += session.disseminate_lossy(group.advert.rendezvous, options,
                                         rng)
                   .delivery_ratio() /
               trials;
    }
    return total;
  };
  EXPECT_GT(delivery(OverlayKind::kGroupCast),
            delivery(OverlayKind::kRandomPowerLaw));
}

TEST(LossySession, Preconditions) {
  LossyFixture f;
  const GroupSession session(*f.world.population, f.tree);
  util::Rng rng(1);
  GroupSession::LossyOptions bad;
  bad.stream_units = 0.0;
  EXPECT_THROW(session.disseminate_lossy(0, bad, rng), PreconditionError);
  EXPECT_THROW(session.disseminate_lossy(7, {}, rng), PreconditionError);
}

}  // namespace
}  // namespace groupcast::core
