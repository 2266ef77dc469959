// Tests for the parallel experiment grid (metrics::run_scenario_grid and
// the run_scenario_averaged wrapper): the determinism contract — results
// byte-identical for every job count, including counter snapshots — the
// seed ladder, the reduction semantics, error propagation out of the
// worker pool, and the check on a caller-attached world.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "metrics/experiment.h"
#include "trace/counters.h"
#include "util/require.h"
#include "util/stats.h"

namespace groupcast {
namespace {

metrics::ScenarioConfig small_config(std::uint64_t seed = 501) {
  metrics::ScenarioConfig config;
  config.peer_count = 300;
  config.groups = 2;
  config.seed = seed;
  return config;
}

/// Exact (bitwise) equality over every result field.  EXPECT_EQ on
/// doubles, not EXPECT_NEAR: the contract is identical results, not
/// close ones.
void expect_identical(const metrics::ScenarioResult& a,
                      const metrics::ScenarioResult& b) {
  EXPECT_EQ(a.advertisement_messages, b.advertisement_messages);
  EXPECT_EQ(a.subscription_messages, b.subscription_messages);
  EXPECT_EQ(a.receiving_rate, b.receiving_rate);
  EXPECT_EQ(a.subscription_success_rate, b.subscription_success_rate);
  EXPECT_EQ(a.lookup_latency_ms, b.lookup_latency_ms);
  EXPECT_EQ(a.delay_penalty, b.delay_penalty);
  EXPECT_EQ(a.link_stress, b.link_stress);
  EXPECT_EQ(a.node_stress, b.node_stress);
  EXPECT_EQ(a.overload_index, b.overload_index);
  EXPECT_EQ(a.avg_tree_depth, b.avg_tree_depth);
  EXPECT_EQ(a.avg_tree_nodes, b.avg_tree_nodes);
  EXPECT_EQ(a.repair_edges, b.repair_edges);
  EXPECT_EQ(a.delay_penalty_group_stddev, b.delay_penalty_group_stddev);
  EXPECT_EQ(a.overload_index_group_stddev, b.overload_index_group_stddev);
  EXPECT_EQ(a.link_stress_group_stddev, b.link_stress_group_stddev);
  EXPECT_EQ(a.lookup_latency_group_stddev, b.lookup_latency_group_stddev);
  EXPECT_EQ(a.delay_penalty_stddev, b.delay_penalty_stddev);
  EXPECT_EQ(a.overload_index_stddev, b.overload_index_stddev);
  EXPECT_EQ(a.link_stress_stddev, b.link_stress_stddev);
  EXPECT_TRUE(a.counters == b.counters);
}

std::vector<metrics::ScenarioConfig> two_point_grid() {
  std::vector<metrics::ScenarioConfig> points;
  points.push_back(small_config(501));
  auto other = small_config(9000);
  other.overlay = core::OverlayKind::kRandomPowerLaw;
  other.scheme = core::AnnouncementScheme::kNssa;
  points.push_back(other);
  return points;
}

// ----------------------------------------------------------- determinism

TEST(ExperimentGrid, ParallelIsByteIdenticalToSequential) {
  // The headline golden: the same grid through jobs = 1, 8, and 0 (all
  // hardware threads), with counters on, must produce identical results —
  // every metric field and every counter cell.
  const auto points = two_point_grid();
  metrics::GridOptions options;
  options.repetitions = 3;
  options.counters = true;

  options.jobs = 1;
  const auto sequential = metrics::run_scenario_grid(points, options);
  options.jobs = 8;
  const auto parallel = metrics::run_scenario_grid(points, options);
  options.jobs = 0;
  const auto all_cores = metrics::run_scenario_grid(points, options);

  ASSERT_EQ(sequential.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  ASSERT_EQ(all_cores.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_identical(sequential[p], parallel[p]);
    expect_identical(sequential[p], all_cores[p]);
    // Counters were requested, so the merged snapshots must be real.
    EXPECT_GT(sequential[p].counters.total(trace::CounterId::kMessagesSent),
              0u);
  }
}

TEST(ExperimentGrid, RepeatedInvocationIsIdentical) {
  const auto points = two_point_grid();
  metrics::GridOptions options;
  options.repetitions = 2;
  options.jobs = 4;
  const auto first = metrics::run_scenario_grid(points, options);
  const auto second = metrics::run_scenario_grid(points, options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    expect_identical(first[p], second[p]);
  }
}

TEST(ExperimentGrid, ResultsFollowPointOrder) {
  const auto points = two_point_grid();
  const auto results = metrics::run_scenario_grid(points, {});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].config.seed, points[0].seed);
  EXPECT_EQ(results[0].config.overlay, points[0].overlay);
  EXPECT_EQ(results[1].config.seed, points[1].seed);
  EXPECT_EQ(results[1].config.overlay, points[1].overlay);
}

// ----------------------------------------------------------- seed ladder

TEST(ExperimentGrid, AveragedUsesEachLadderSeedExactlyOnce) {
  // run_scenario_averaged over k repetitions must equal the reduction of
  // exactly the runs seed, seed+1, ..., seed+k-1 — each once, in order.
  const auto config = small_config(7700);
  const std::size_t reps = 3;

  std::vector<metrics::ScenarioResult> manual;
  for (std::size_t r = 0; r < reps; ++r) {
    auto rep = config;
    rep.seed = config.seed + r;
    manual.push_back(metrics::run_scenario(rep));
  }
  const auto expected = metrics::reduce_scenario_repetitions(config, manual);

  const auto sequential = metrics::run_scenario_averaged(config, reps, 1);
  const auto parallel = metrics::run_scenario_averaged(config, reps, 8);
  expect_identical(expected, sequential);
  expect_identical(expected, parallel);

  // Same ladder, different base seed: results must differ, proving the
  // ladder is anchored at config.seed rather than a fixed constant.
  const auto shifted =
      metrics::run_scenario_averaged(small_config(7701), reps, 1);
  EXPECT_NE(sequential.advertisement_messages,
            shifted.advertisement_messages);
}

TEST(ExperimentGrid, SingleRepetitionMatchesPlainRunScenario) {
  const auto config = small_config(42);
  const auto direct = metrics::run_scenario(config);
  const auto averaged = metrics::run_scenario_averaged(config, 1, 4);
  expect_identical(direct, averaged);
}

TEST(ExperimentGrid, ReductionAveragesMeansAndSumsRepairEdges) {
  const auto config = small_config(88);
  std::vector<metrics::ScenarioResult> reps;
  for (std::size_t r = 0; r < 2; ++r) {
    auto rep = config;
    rep.seed = config.seed + r;
    reps.push_back(metrics::run_scenario(rep));
  }
  const auto reduced = metrics::reduce_scenario_repetitions(config, reps);
  EXPECT_DOUBLE_EQ(reduced.delay_penalty,
                   reps[0].delay_penalty / 2.0 + reps[1].delay_penalty / 2.0);
  EXPECT_EQ(reduced.repair_edges,
            reps[0].repair_edges + reps[1].repair_edges);
  // Cross-repetition stddev comes from the per-repetition values.
  util::Summary delays;
  delays.add(reps[0].delay_penalty);
  delays.add(reps[1].delay_penalty);
  EXPECT_DOUBLE_EQ(reduced.delay_penalty_stddev, delays.stddev());
}

// The must-be-0 counts sum over the repetitions instead of averaging, so
// one broken world cannot hide behind clean ones; the worst world's
// violation count is kept as well.
TEST(ExperimentGrid, ReductionSumsMustBeZeroCounts) {
  const auto config = small_config(88);
  std::vector<metrics::ScenarioResult> reps(2);
  reps[0].invariant_violations = reps[0].invariant_violations_max = 1.0;
  reps[1].invariant_violations = reps[1].invariant_violations_max = 2.0;
  reps[0].epoch_conflicts = 1.0;
  reps[1].epoch_conflicts = 3.0;
  const auto reduced = metrics::reduce_scenario_repetitions(config, reps);
  EXPECT_DOUBLE_EQ(reduced.invariant_violations, 3.0);
  EXPECT_DOUBLE_EQ(reduced.invariant_violations_max, 2.0);
  EXPECT_DOUBLE_EQ(reduced.epoch_conflicts, 4.0);
}

// -------------------------------------------------------------- counters

TEST(ExperimentGrid, GridCountersMatchManuallyMergedRuns) {
  const auto config = small_config(1234);
  const std::size_t reps = 2;

  // Manual reference: run each repetition against its own registry and
  // merge the snapshots.
  trace::CounterSnapshot expected;
  for (std::size_t r = 0; r < reps; ++r) {
    auto rep = config;
    rep.seed = config.seed + r;
    trace::CounterRegistry local;
    local.enable(rep.peer_count);
    trace::ScopedCounterRegistry guard(local);
    expected.merge(metrics::run_scenario(rep).counters);
  }

  metrics::GridOptions options;
  options.repetitions = reps;
  options.jobs = 4;
  options.counters = true;
  const auto results = metrics::run_scenario_grid(
      std::span<const metrics::ScenarioConfig>(&config, 1), options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].counters == expected);
  EXPECT_GT(expected.total(trace::CounterId::kMessagesSent), 0u);
}

TEST(ExperimentGrid, AveragedFoldsCountersIntoAmbientRegistry) {
  // run_scenario_averaged collects counters whenever the calling thread's
  // registry is enabled, and folds the merged snapshot back into it —
  // the contract sim_driver --trace_out relies on.
  const auto config = small_config(555);
  trace::counters().enable(config.peer_count);
  const auto result = metrics::run_scenario_averaged(config, 2, 4);
  const auto ambient = trace::counters().snapshot();
  trace::counters().disable();
  trace::counters().reset();

  EXPECT_GT(result.counters.total(trace::CounterId::kMessagesSent), 0u);
  EXPECT_TRUE(ambient == result.counters);
}

TEST(ExperimentGrid, CountersOffByDefault) {
  const auto config = small_config(556);
  const auto results = metrics::run_scenario_grid(
      std::span<const metrics::ScenarioConfig>(&config, 1), {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.total(trace::CounterId::kMessagesSent), 0u);
  EXPECT_TRUE(results[0].counters.per_node.empty());
}

// ------------------------------------------------------ error propagation

TEST(ExperimentGrid, WorkerExceptionsReachTheCaller) {
  // peer_count = 1 violates the middleware's precondition; the failure
  // happens on a pool thread and must surface as the original exception
  // type on the calling thread.
  std::vector<metrics::ScenarioConfig> points = two_point_grid();
  auto bad = small_config(1);
  bad.peer_count = 1;
  points.push_back(bad);
  metrics::GridOptions options;
  options.jobs = 4;
  EXPECT_THROW(metrics::run_scenario_grid(points, options),
               PreconditionError);
  options.jobs = 1;
  EXPECT_THROW(metrics::run_scenario_grid(points, options),
               PreconditionError);
}

TEST(ExperimentGrid, EmptyGridAndBadOptions) {
  EXPECT_TRUE(metrics::run_scenario_grid({}, {}).empty());
  const auto config = small_config(2);
  metrics::GridOptions zero_reps;
  zero_reps.repetitions = 0;
  EXPECT_THROW(metrics::run_scenario_grid(
                   std::span<const metrics::ScenarioConfig>(&config, 1),
                   zero_reps),
               PreconditionError);
  EXPECT_THROW(metrics::run_scenario_averaged(config, 0),
               PreconditionError);
}

TEST(ExperimentGrid, MoreJobsThanWorkItems) {
  // Pool size clamps to the item count; results stay correct.
  const auto config = small_config(31);
  metrics::GridOptions options;
  options.jobs = 64;
  const auto wide = metrics::run_scenario_grid(
      std::span<const metrics::ScenarioConfig>(&config, 1), options);
  options.jobs = 1;
  const auto narrow = metrics::run_scenario_grid(
      std::span<const metrics::ScenarioConfig>(&config, 1), options);
  ASSERT_EQ(wide.size(), 1u);
  expect_identical(narrow[0], wide[0]);
}

// ------------------------------------------------------ attached worlds

TEST(Experiment, AttachedWorldMustMatchTheScenario) {
  // A fork runs the snapshot's config, so a snapshot built for another
  // overlay or announcement scheme must be refused, even when its peer
  // count and seed match the scenario's.
  metrics::ScenarioConfig scenario;
  scenario.peer_count = 60;
  scenario.seed = 3;

  auto power_law = scenario;
  power_law.overlay = core::OverlayKind::kRandomPowerLaw;
  scenario.world = core::GroupCastMiddleware::make_snapshot(
      power_law.middleware_config());
  EXPECT_THROW(metrics::make_scenario_middleware(scenario),
               PreconditionError);

  auto nssa = scenario;
  nssa.scheme = core::AnnouncementScheme::kNssa;
  scenario.world =
      core::GroupCastMiddleware::make_snapshot(nssa.middleware_config());
  EXPECT_THROW(metrics::make_scenario_middleware(scenario),
               PreconditionError);

  scenario.world =
      core::GroupCastMiddleware::make_snapshot(scenario.middleware_config());
  EXPECT_NE(metrics::make_scenario_middleware(scenario), nullptr);
}

}  // namespace
}  // namespace groupcast
