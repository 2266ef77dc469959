// Tests for the pinned-resource-level ablation hook of the bootstrap.
#include <gtest/gtest.h>

#include "core/middleware.h"
#include "metrics/graph_stats.h"
#include "util/stats.h"

namespace groupcast::overlay {
namespace {

TEST(AblationPinning, DistanceOnlyYieldsCloserNeighboursThanCapacityOnly) {
  core::MiddlewareConfig near_config, far_config;
  near_config.peer_count = far_config.peer_count = 250;
  near_config.seed = far_config.seed = 13;
  near_config.bootstrap.pinned_resource_level = 0.001;  // gamma ~ 0
  far_config.bootstrap.pinned_resource_level = 0.999;   // gamma ~ 1
  core::GroupCastMiddleware near_mw(near_config), far_mw(far_config);
  const auto near_dist =
      metrics::neighbor_distance_summary(near_mw.population(),
                                         near_mw.graph());
  const auto far_dist = metrics::neighbor_distance_summary(
      far_mw.population(), far_mw.graph());
  EXPECT_LT(near_dist.mean(), 0.7 * far_dist.mean());
}

TEST(AblationPinning, CapacityDrivesDegreeUnderEveryBlend) {
  // The bootstrap's Eq. 6 substitutes occurrence frequency for capacity,
  // so the blend pin steers *which* hubs attract links, not whether hubs
  // exist; the capacity-degree correlation instead comes from the
  // capacity-scaled out-degree targets and must stay clearly positive
  // under any pin.
  for (const double pin : {0.001, 0.5, 0.999, -1.0}) {
    core::MiddlewareConfig config;
    config.peer_count = 250;
    config.seed = 17;
    config.bootstrap.pinned_resource_level = pin;
    core::GroupCastMiddleware middleware(config);
    std::vector<double> capacity, degree;
    for (PeerId p = 0; p < 250; ++p) {
      capacity.push_back(middleware.population().info(p).capacity);
      degree.push_back(static_cast<double>(middleware.graph().degree(p)));
    }
    EXPECT_GT(util::pearson(capacity, degree), 0.1) << "pin " << pin;
  }
}

TEST(AblationPinning, NegativePinMeansSampled) {
  // Default (-1) must behave exactly like the paper path: two middlewares
  // with identical seeds agree.
  core::MiddlewareConfig a, b;
  a.peer_count = b.peer_count = 150;
  a.seed = b.seed = 19;
  b.bootstrap.pinned_resource_level = -1.0;
  core::GroupCastMiddleware mw_a(a), mw_b(b);
  EXPECT_EQ(mw_a.graph().edge_count(), mw_b.graph().edge_count());
}

}  // namespace
}  // namespace groupcast::overlay
