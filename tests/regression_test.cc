// Golden-value regression suite.
//
// Everything in GroupCast is deterministic under a seed, so key headline
// numbers are pinned here (with loose tolerances to absorb libm
// last-ulp differences across platforms).  A failure means behaviour
// changed — deliberately or not; update the goldens only after
// confirming the change is intended and EXPERIMENTS.md still holds.
#include <gtest/gtest.h>

#include <span>

#include "core/middleware.h"
#include "core/utility.h"
#include "metrics/esm_metrics.h"
#include "metrics/experiment.h"
#include "metrics/graph_stats.h"
#include "test_helpers.h"

namespace groupcast {
namespace {

/// FNV-1a over a deployment's overlay adjacency (out-lists in stored
/// order) and every peer's attachment, coordinate and capacity.
std::uint64_t world_hash(const core::GroupCastMiddleware& middleware) {
  testing::Fnv64 hash;
  const auto& graph = middleware.graph();
  for (overlay::PeerId p = 0; p < graph.peer_count(); ++p) {
    const auto out = graph.out_neighbors(p);
    hash.add(out.size());
    hash.add(std::span<const overlay::PeerId>(out.begin(), out.size()));
  }
  for (const auto& peer : middleware.population().peers()) {
    hash.add(peer.router);
    hash.add(peer.access_latency_ms);
    hash.add(peer.coord);
    hash.add(peer.capacity);
  }
  return hash.value();
}

TEST(Regression, OverlayConstructionGoldens) {
  // One row per world kind the middleware builds.  Exact integer goldens:
  // the RNG and join order are fully deterministic.
  struct Row {
    core::OverlayKind overlay;
    core::UnderlayModel underlay;
    std::size_t edges;
    std::size_t repair_edges;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {core::OverlayKind::kGroupCast, core::UnderlayModel::kTransitStub,
       4500u, 0u, 0x95be9e76bad40c78ULL},
      {core::OverlayKind::kRandomPowerLaw,
       core::UnderlayModel::kTransitStub, 2746u, 0u, 0x178e6da1afdfb50bULL},
      {core::OverlayKind::kSupernode, core::UnderlayModel::kTransitStub,
       3764u, 0u, 0x7c43be16ccce7631ULL},
      {core::OverlayKind::kGroupCast, core::UnderlayModel::kWaxman, 4559u,
       0u, 0xab575380bb1c8514ULL},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << core::to_string(row.overlay) << " on "
                 << (row.underlay == core::UnderlayModel::kWaxman
                         ? "Waxman"
                         : "transit-stub"));
    core::MiddlewareConfig config;
    config.peer_count = 500;
    config.seed = 7;
    config.overlay = row.overlay;
    config.underlay_model = row.underlay;
    core::GroupCastMiddleware middleware(config);
    EXPECT_EQ(middleware.graph().edge_count(), row.edges);
    EXPECT_EQ(middleware.connectivity_repair_edges(), row.repair_edges);
    EXPECT_TRUE(middleware.graph().connectivity().connected);
    EXPECT_EQ(world_hash(middleware), row.hash);
  }
}

TEST(Regression, ScenarioGoldens) {
  metrics::ScenarioConfig config;
  config.peer_count = 500;
  config.groups = 4;
  config.seed = 12345;
  const auto r = metrics::run_scenario(config);
  // Loose relative tolerances: these guard the protocol logic, not FP
  // round-off.
  EXPECT_NEAR(r.receiving_rate, 0.87, 0.06);
  EXPECT_NEAR(r.subscription_success_rate, 1.0, 0.01);
  EXPECT_NEAR(r.delay_penalty, 1.2, 0.25);
  EXPECT_GT(r.advertisement_messages, 1000);
  EXPECT_LT(r.advertisement_messages, 3000);
}

TEST(Regression, BaselineContrastGoldens) {
  // The headline contrast must never silently collapse: GroupCast beats
  // the random overlay by at least 2x on neighbour proximity and at
  // least 1.5x on delay penalty for this pinned configuration.
  auto measure = [](core::OverlayKind kind) {
    core::MiddlewareConfig config;
    config.peer_count = 600;
    config.seed = 99;
    config.overlay = kind;
    core::GroupCastMiddleware middleware(config);
    const double proximity =
        metrics::neighbor_distance_summary(middleware.population(),
                                           middleware.graph())
            .mean();
    auto group = middleware.establish_random_group(60);
    const auto session = middleware.session(group);
    const auto m = metrics::evaluate_session(middleware.population(),
                                             session,
                                             group.advert.rendezvous);
    return std::pair<double, double>{proximity, m.delay_penalty};
  };
  const auto [gc_prox, gc_delay] = measure(core::OverlayKind::kGroupCast);
  const auto [pl_prox, pl_delay] =
      measure(core::OverlayKind::kRandomPowerLaw);
  EXPECT_LT(gc_prox * 2.0, pl_prox);
  EXPECT_LT(gc_delay * 1.5, pl_delay);
}

TEST(Regression, RngStreamGolden) {
  // The first outputs of the seeded generator are part of the repro
  // contract (all experiment results depend on them).
  util::Rng rng(42);
  EXPECT_EQ(rng(), 1546998764402558742ULL);
  EXPECT_EQ(rng(), 6990951692964543102ULL);
  EXPECT_EQ(rng(), 12544586762248559009ULL);
}

TEST(Regression, Table1ResourceLevelContract) {
  const overlay::CapacityDistribution table1;
  EXPECT_DOUBLE_EQ(table1.resource_level(100.0), 0.65);
  const auto params = core::UtilityParams::from_resource_level(0.65);
  EXPECT_NEAR(params.gamma, 0.8305, 0.001);
  EXPECT_NEAR(params.alpha, 0.35, 1e-12);
  EXPECT_NEAR(params.beta, 0.65, 1e-12);
}

}  // namespace
}  // namespace groupcast
