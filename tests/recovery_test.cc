// End-to-end robustness acceptance tests: the churn-recovery harness under
// heavy loss and ungraceful churn, determinism of the recovery grid across
// worker counts, and a regression showing that the retry ladder survives
// the dropped JoinAck that once stranded a subscriber forever.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fault_injection.h"
#include "core/middleware.h"
#include "core/node.h"
#include "metrics/experiment.h"
#include "sim/fault_plan.h"
#include "trace/counters.h"
#include "util/require.h"

namespace groupcast {
namespace {

metrics::ScenarioConfig hostile_point() {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.seed = 4242;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.2;
  point.recovery.crash_fraction = 0.3;
  return point;
}

// The shared runtime fields are covered for both harnesses by
// HarnessValidation; these are the recovery-only ones.
TEST(Recovery, ValidationRejectsBadOptionsLoudly) {
  const auto rejects = [](auto&& mutate) {
    auto point = hostile_point();
    mutate(point.recovery);
    EXPECT_THROW(metrics::run_scenario(point), PreconditionError);
  };
  using Options = metrics::RecoveryOptions;
  rejects([](Options& r) { r.crash_fraction = 1.5; });
  rejects([](Options& r) { r.crash_fraction = -0.1; });
  rejects([](Options& r) { r.graceful_fraction = -0.1; });
  rejects([](Options& r) { r.graceful_fraction = 0.8; });  // sum > 1
  rejects([](Options& r) { r.speaking_payloads = 0; });
  rejects([](Options& r) { r.partition_seconds = 10.0; });  // no replicas
  rejects([](Options& r) {
    r.replication = true;
    r.replicas = 0;
  });
  rejects([](Options& r) {
    r.replication = true;
    r.lease_seconds = 0;
  });
  rejects([](Options& r) {
    r.replication = true;
    r.partition_seconds = -1.0;
  });
}

// The ISSUE's acceptance bar: loss = 0.2 plus 30% ungraceful churn, and
// every surviving subscriber must still re-attach with a coherent tree.
TEST(Recovery, SurvivorsReattachUnderHeavyLossAndChurn) {
  const auto result = metrics::run_scenario(hostile_point());
  EXPECT_DOUBLE_EQ(result.reattached_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result.invariant_violations, 0.0);
  EXPECT_GT(result.delivery_ratio, 0.0);
  EXPECT_GT(result.subscription_success_rate, 0.9);
  EXPECT_LT(result.epochs_to_converge,
            static_cast<double>(metrics::kConvergenceEpochs));
}

// The same hostile point must produce byte-identical numbers whether the
// grid runs sequentially or on four workers (the harness's determinism
// contract extends to recovery runs).
TEST(Recovery, GridResultsIdenticalAcrossJobCounts) {
  const std::vector<metrics::ScenarioConfig> points{hostile_point()};
  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.counters = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;

  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);

  EXPECT_EQ(a[0].delivery_ratio, b[0].delivery_ratio);
  EXPECT_EQ(a[0].reattached_fraction, b[0].reattached_fraction);
  EXPECT_EQ(a[0].mean_orphan_epochs, b[0].mean_orphan_epochs);
  EXPECT_EQ(a[0].epochs_to_converge, b[0].epochs_to_converge);
  EXPECT_EQ(a[0].control_overhead, b[0].control_overhead);
  EXPECT_EQ(a[0].invariant_violations, b[0].invariant_violations);
  EXPECT_EQ(a[0].subscription_success_rate, b[0].subscription_success_rate);
  EXPECT_EQ(a[0].subscription_messages, b[0].subscription_messages);
  EXPECT_EQ(a[0].avg_tree_nodes, b[0].avg_tree_nodes);
  EXPECT_EQ(a[0].counters.totals, b[0].counters.totals);
  EXPECT_EQ(a[0].counters.per_node, b[0].counters.per_node);
  // The recovery path actually exercised the retry machinery.
  EXPECT_GT(a[0].counters.total(trace::CounterId::kControlRetries), 0u);
  EXPECT_GT(a[0].counters.total(trace::CounterId::kHeartbeats), 0u);
}

// The data-plane acceptance bar: at loss = 0.2 (no churn) the legacy
// fire-and-forget path delivers well under two thirds of the published
// payloads; with NACK/retransmit reliability on the tree edges the same
// point must recover to >= 95%.  Both sides run >= 2 seed repetitions so
// the harness reports the seed-to-seed dispersion of the delivery ratio —
// a single lucky topology must not pass the bar on its own.
TEST(Recovery, ReliableDataPlaneRecoversLossyDelivery) {
  metrics::ScenarioConfig lossy;
  lossy.peer_count = 400;
  lossy.groups = 1;
  lossy.seed = 7100;
  lossy.recovery.enabled = true;
  lossy.recovery.loss_probability = 0.2;
  auto reliable = lossy;
  reliable.recovery.reliable_data = true;

  metrics::GridOptions options;
  options.jobs = 2;
  options.repetitions = 2;
  options.counters = true;
  const std::vector<metrics::ScenarioConfig> points{lossy, reliable};
  const auto results = metrics::run_scenario_grid(points, options);
  ASSERT_EQ(results.size(), 2u);
  const auto& off = results[0];
  const auto& on = results[1];

  EXPECT_LT(off.delivery_ratio, 0.65);
  EXPECT_GE(on.delivery_ratio, 0.95);
  EXPECT_GT(on.counters.total(trace::CounterId::kNacksSent), 0u);
  EXPECT_GT(on.counters.total(trace::CounterId::kRetransmits), 0u);
  // Dispersion must be reported (not left defaulted) for both variants:
  // at 20% loss independent topologies never agree to the last bit, so a
  // stddev of exactly zero means the repetitions were not folded in.
  EXPECT_GT(off.delivery_ratio_stddev, 0.0);
  EXPECT_GE(on.delivery_ratio_stddev, 0.0);
  EXPECT_LT(on.delivery_ratio_stddev, 0.05);
}

metrics::ScenarioConfig partition_point() {
  metrics::ScenarioConfig point;
  point.peer_count = 300;
  point.groups = 1;
  point.seed = 1;
  point.recovery.enabled = true;
  point.recovery.crash_fraction = 0.1;
  point.recovery.replication = true;
  point.recovery.replicas = 3;
  point.recovery.partition_seconds = 30.0;
  return point;
}

// The partition-heal acceptance bar: a 30 s partition that isolates the
// rendezvous point with a minority of subscribers.  The majority side
// must elect a replica via quorum handoff and keep delivering; the
// minority side keeps its caretaker subtree.  The heal must merge the
// divergent epoch logs with no conflicting records and a coherent tree.
// The run is deterministic, so both sides are pinned at full delivery.
TEST(Recovery, PartitionServesBothSidesAndHealsCleanly) {
  const auto result = metrics::run_scenario(partition_point());
  EXPECT_DOUBLE_EQ(result.partition_majority_delivery, 1.0);
  EXPECT_DOUBLE_EQ(result.partition_minority_delivery, 1.0);
  EXPECT_GE(result.lease_handoffs, 1.0);  // the majority actually elected
  EXPECT_DOUBLE_EQ(result.epoch_conflicts, 0.0);
  EXPECT_DOUBLE_EQ(result.invariant_violations, 0.0);
  EXPECT_DOUBLE_EQ(result.reattached_fraction, 1.0);
}

// The determinism contract extends to the partition-heal sweep: the new
// per-side ratios and lease accounting must be byte-identical whatever
// GridOptions::jobs is.
TEST(Recovery, PartitionGridIdenticalAcrossJobCounts) {
  const std::vector<metrics::ScenarioConfig> points{partition_point()};
  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.counters = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;

  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);

  EXPECT_EQ(a[0].partition_majority_delivery, b[0].partition_majority_delivery);
  EXPECT_EQ(a[0].partition_minority_delivery, b[0].partition_minority_delivery);
  EXPECT_EQ(a[0].lease_handoffs, b[0].lease_handoffs);
  EXPECT_EQ(a[0].epoch_conflicts, b[0].epoch_conflicts);
  EXPECT_EQ(a[0].delivery_ratio, b[0].delivery_ratio);
  EXPECT_EQ(a[0].invariant_violations, b[0].invariant_violations);
  EXPECT_EQ(a[0].counters.totals, b[0].counters.totals);
  EXPECT_EQ(a[0].counters.per_node, b[0].counters.per_node);
  // The leased-leadership machinery actually ran.
  EXPECT_GT(a[0].counters.total(trace::CounterId::kLeaseRenewals), 0u);
  EXPECT_GT(a[0].counters.total(trace::CounterId::kLeaseHandoffs), 0u);
}

// Backup-parent failover is rung 0 of the recovery ladder when
// replication is on: under crash churn at least some orphans must
// re-attach through their pre-arranged backup instead of the slower
// advert-parent / rendezvous / ripple rungs.
TEST(Recovery, BackupParentRungFiresUnderChurn) {
  auto point = hostile_point();
  point.recovery.replication = true;
  metrics::GridOptions options;
  options.jobs = 1;
  options.counters = true;
  const std::vector<metrics::ScenarioConfig> points{point};
  const auto results = metrics::run_scenario_grid(points, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].counters.total(trace::CounterId::kBackupAttaches), 0u);
  EXPECT_DOUBLE_EQ(results[0].reattached_fraction, 1.0);
  EXPECT_DOUBLE_EQ(results[0].invariant_violations, 0.0);
}

// Deployment driving one subscriber through a total outage of the control
// plane: a partition window cutting the subscriber off from every other
// peer swallows the JOIN and its ack, exactly the dropped-JoinAck
// scenario that used to strand the subscriber forever.
struct JoinOutageFixture {
  core::GroupCastMiddleware middleware;
  util::Rng rng;
  core::Transport transport;
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes;
  overlay::PeerId rendezvous = overlay::kNoPeer;
  static constexpr core::GroupId kGroup = 1;

  JoinOutageFixture()
      : middleware(small_config()),
        rng(middleware.rng().split()),
        transport(middleware.simulator(), middleware.population(),
                  core::TransportOptions{}, rng) {
    core::NodeOptions node_options;
    node_options.advertisement = small_config().advertisement;
    for (overlay::PeerId p = 0; p < small_config().peer_count; ++p) {
      nodes.push_back(std::make_unique<core::GroupCastNode>(
          p, transport, middleware.graph(), node_options, rng));
      nodes.back()->start();
    }
    rendezvous = middleware.pick_rendezvous();
    nodes[rendezvous]->create_group(kGroup);
    middleware.simulator().run_until(sim::SimTime::seconds(5.0));
  }

  static core::MiddlewareConfig small_config() {
    core::MiddlewareConfig config;
    config.peer_count = 64;
    config.seed = 5;
    return config;
  }

  overlay::PeerId pick_subscriber() const {
    for (overlay::PeerId p = 0; p < nodes.size(); ++p) {
      if (p != rendezvous && nodes[p]->has_advertisement(kGroup)) return p;
    }
    return overlay::kNoPeer;
  }

  /// A plan isolating `peer` from everyone else over [begin, end).
  sim::FaultPlan outage(overlay::PeerId peer, sim::SimTime begin,
                        sim::SimTime end) const {
    sim::PartitionWindow window{begin, end, {peer}, {}};
    for (overlay::PeerId p = 0; p < nodes.size(); ++p) {
      if (p != peer) window.side_b.push_back(p);
    }
    sim::FaultPlan plan;
    plan.partitions.push_back(std::move(window));
    return plan;
  }
};

// With the default retry policy the same outage only delays the join: the
// backoff pushes a later attempt past the window's end and the subscriber
// lands on the tree.
TEST(Recovery, RetryLadderSurvivesDroppedJoinAck) {
  JoinOutageFixture f;
  const auto subscriber = f.pick_subscriber();
  ASSERT_NE(subscriber, overlay::kNoPeer);
  core::FaultInjector injector(
      f.outage(subscriber, sim::SimTime::seconds(5.0),
               sim::SimTime::seconds(6.5)),
      f.transport);
  bool reported = false, success = false;
  f.nodes[subscriber]->on_subscribe_result(
      [&](core::GroupId, bool ok) { reported = true; success = ok; });
  f.nodes[subscriber]->subscribe(JoinOutageFixture::kGroup);
  f.middleware.simulator().run_until(sim::SimTime::seconds(30.0));
  EXPECT_TRUE(reported);
  EXPECT_TRUE(success);
  EXPECT_TRUE(f.nodes[subscriber]->is_subscribed(JoinOutageFixture::kGroup));
  EXPECT_TRUE(f.nodes[subscriber]->on_tree(JoinOutageFixture::kGroup));
}

}  // namespace
}  // namespace groupcast
