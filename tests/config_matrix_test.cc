// Cross-feature configuration matrix: every combination of underlay model,
// coordinate system, and overlay architecture must produce a working
// deployment with sane group communication.  Catches integration breakage
// between independently developed options.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/middleware.h"
#include "metrics/esm_metrics.h"

namespace groupcast::core {
namespace {

class ConfigMatrix
    : public ::testing::TestWithParam<
          std::tuple<UnderlayModel, overlay::CoordinateSystem, OverlayKind>> {
 protected:
  MiddlewareConfig config() const {
    MiddlewareConfig c;
    c.peer_count = 150;
    c.seed = 99;
    c.underlay_model = std::get<0>(GetParam());
    c.population.coordinates = std::get<1>(GetParam());
    c.overlay = std::get<2>(GetParam());
    return c;
  }
};

TEST_P(ConfigMatrix, DeploymentWorksEndToEnd) {
  GroupCastMiddleware middleware(config());
  EXPECT_TRUE(middleware.graph().connectivity().connected);

  auto group = middleware.establish_random_group(25);
  EXPECT_TRUE(group.tree.is_consistent());
  EXPECT_GT(group.report.success_rate(), 0.85);

  const auto session = middleware.session(group);
  const auto m = metrics::evaluate_session(middleware.population(), session,
                                           group.advert.rendezvous);
  EXPECT_GE(m.delay_penalty, 1.0 - 1e-9);
  EXPECT_GT(m.esm_avg_delay_ms, 0.0);
  EXPECT_GE(m.link_stress, 1.0 - 1e-9);
}

// Group communication, not single-source multicast: a payload from any
// subscriber crosses every tree edge once and reaches every other
// subscriber.
TEST_P(ConfigMatrix, AnySubscriberReachesEveryOtherSubscriber) {
  GroupCastMiddleware middleware(config());
  const auto group = middleware.establish_random_group(25);
  overlay::PeerId source = overlay::kNoPeer;  // lowest non-root subscriber
  for (const auto s : group.tree.subscribers()) {
    if (s != group.tree.root()) source = std::min(source, s);
  }
  ASSERT_NE(source, overlay::kNoPeer);
  const auto result = middleware.session(group).disseminate(source);
  EXPECT_EQ(result.source, source);
  EXPECT_EQ(result.payload_messages, group.tree.nodes().size() - 1);
  for (const auto s : group.tree.subscribers()) {
    if (s == source) continue;
    const auto it = result.subscriber_delay_ms.find(s);
    ASSERT_NE(it, result.subscriber_delay_ms.end()) << "subscriber " << s;
    EXPECT_GT(it->second, 0.0) << "subscriber " << s;
    EXPECT_LE(it->second, result.max_delay_ms) << "subscriber " << s;
  }
}

// The capacity-loss model drops copies only at relays whose fan-out
// exceeds what their capacity sustains; with a negligible stream nothing
// is overloaded, so every subscriber is reached on every deployment.
TEST_P(ConfigMatrix, NegligibleStreamMakesLossyDeliveryComplete) {
  GroupCastMiddleware middleware(config());
  const auto group = middleware.establish_random_group(25);
  GroupSession::LossyOptions options;
  options.stream_units = 1e-6;
  util::Rng rng(31);
  const auto result = middleware.session(group).disseminate_lossy(
      group.advert.rendezvous, options, rng);
  EXPECT_EQ(result.subscribers_total,
            group.tree.subscribers().size() -
                (group.tree.is_subscriber(group.advert.rendezvous) ? 1 : 0));
  EXPECT_DOUBLE_EQ(result.delivery_ratio(), 1.0);
  EXPECT_EQ(result.copies_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(UnderlayModel::kTransitStub,
                          UnderlayModel::kWaxman),
        ::testing::Values(overlay::CoordinateSystem::kGnp,
                          overlay::CoordinateSystem::kVivaldi),
        ::testing::Values(OverlayKind::kGroupCast,
                          OverlayKind::kRandomPowerLaw,
                          OverlayKind::kSupernode)));

}  // namespace
}  // namespace groupcast::core
