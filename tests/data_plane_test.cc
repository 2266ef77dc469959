// Tests for the reliable data plane on tree edges (docs/ROBUSTNESS.md,
// "Data-plane reliability" and "Flow control & adaptive detection"):
// exactly-once delivery through loss via NACK/retransmit, sequence-layer
// duplicate suppression under retransmit races, cumulative-ack trimming of
// the per-child send buffer, per-edge high-water accounting, sender-side
// flow control under a slow child, the adaptive miss-threshold math, and
// the determinism of the reliability counters across grid worker counts.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/node.h"
#include "metrics/experiment.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "trace/counters.h"
#include "trace/histogram.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

TransportOptions lossy_transport(double loss) {
  TransportOptions options;
  options.loss_probability = loss;
  return options;
}

/// A full node deployment over a joined GroupCast overlay, with the
/// reliable data plane switched on.
struct ReliableDeployment {
  testing::SmallWorld world;
  overlay::OverlayGraph graph;
  sim::Simulator simulator;
  Transport transport;
  std::vector<std::unique_ptr<GroupCastNode>> nodes;

  explicit ReliableDeployment(std::size_t peers = 64, std::uint64_t seed = 21,
                              double loss = 0.0, NodeOptions options = {})
      : world(peers, seed),
        graph(peers),
        transport(simulator, *world.population,
                  lossy_transport(loss), world.rng) {
    options.reliability.enabled = true;
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    for (PeerId p = 0; p < peers; ++p) bootstrap.join(p);
    for (PeerId p = 0; p < peers; ++p) {
      nodes.push_back(std::make_unique<GroupCastNode>(
          p, transport, graph, options, world.rng));
      nodes.back()->start();
    }
  }
};

struct CounterScope {
  explicit CounterScope(std::size_t nodes) {
    trace::counters().enable(nodes);
  }
  ~CounterScope() {
    trace::counters().disable();
    trace::counters().reset();
  }
};

/// A node deployment over a hand-wired overlay graph (no bootstrap), with
/// per-peer options — the topology-exact fixture for flow-control tests
/// where which edge blocks must be known in advance.
struct WiredDeployment {
  testing::SmallWorld world;
  overlay::OverlayGraph graph;
  sim::Simulator simulator;
  Transport transport;
  std::vector<std::unique_ptr<GroupCastNode>> nodes;

  WiredDeployment(std::size_t peers,
                  const std::vector<std::pair<PeerId, PeerId>>& edges,
                  const std::function<NodeOptions(PeerId)>& options_for)
      : world(peers, 21),
        graph(peers),
        transport(simulator, *world.population, TransportOptions{},
                  world.rng) {
    for (const auto& [a, b] : edges) graph.add_edge(a, b);
    for (PeerId p = 0; p < peers; ++p) {
      nodes.push_back(std::make_unique<GroupCastNode>(
          p, transport, graph, options_for(p), world.rng));
      nodes.back()->start();
    }
  }
};

NodeOptions reliable_options() {
  NodeOptions options;
  options.reliability.enabled = true;
  return options;
}

TEST(DataPlane, LossyPublishDeliversExactlyOnce) {
  CounterScope scope(64);
  ReliableDeployment d(64, 31, 0.15);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  const std::vector<PeerId> subscribers{4, 9, 16, 25, 36, 49};
  for (const auto s : subscribers) d.nodes[s]->subscribe(9);
  d.simulator.run();
  std::map<PeerId, std::map<std::uint64_t, int>> deliveries;
  std::vector<PeerId> attached;
  for (const auto s : subscribers) {
    // Loss can defeat even the retry ladder; score only attached members.
    if (!d.nodes[s]->is_subscribed(9) || !d.nodes[s]->on_tree(9)) continue;
    attached.push_back(s);
    d.nodes[s]->on_data([&deliveries, s](GroupId, std::uint64_t id, PeerId) {
      ++deliveries[s][id];
    });
  }
  ASSERT_GE(attached.size(), 3u);
  const int kPayloads = 30;
  for (int i = 0; i < kPayloads; ++i) {
    d.nodes[0]->publish(9, 1000 + i);
    d.simulator.run_until(d.simulator.now() + sim::SimTime::millis(50));
  }
  // Leave ample time for probe-driven tail recovery.
  d.simulator.run_until(d.simulator.now() + sim::SimTime::seconds(10));
  for (const auto s : attached) {
    for (int i = 0; i < kPayloads; ++i) {
      EXPECT_EQ(deliveries[s][1000 + i], 1)
          << "peer " << s << " payload " << 1000 + i;
    }
  }
  // 15% loss over ~200 tree-edge sends must have exercised the machinery.
  EXPECT_GT(trace::counters().total(trace::CounterId::kNacksSent), 0u);
  EXPECT_GT(trace::counters().total(trace::CounterId::kRetransmits), 0u);
}

TEST(DataPlane, SequenceLayerSuppressesRetransmitRaceDuplicates) {
  CounterScope scope(64);
  ReliableDeployment d(64, 31);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[16]->subscribe(9);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[16]->on_tree(9));
  int delivered = 0;
  d.nodes[16]->on_data([&](GroupId, std::uint64_t, PeerId) { ++delivered; });
  d.nodes[0]->publish(9, 777);
  d.simulator.run();
  EXPECT_EQ(delivered, 1);
  // Replay the edge's (epoch 1, seq 0) payload from 16's parent — exactly
  // what a retransmission racing the original looks like on the wire.
  const PeerId parent = d.nodes[16]->tree_parent(9);
  const std::uint64_t before =
      trace::counters().total(trace::CounterId::kDupsSuppressed);
  d.transport.send(parent, 16, ReliableDataMsg{9, 0, 777, 1, 0});
  d.simulator.run();
  EXPECT_EQ(delivered, 1);  // the duplicate never reached the application
  EXPECT_EQ(trace::counters().total(trace::CounterId::kDupsSuppressed),
            before + 1);
}

TEST(DataPlane, CumulativeAckTrimsSendBuffer) {
  CounterScope scope(64);
  NodeOptions options;
  options.reliability.ack_every = 4;
  ReliableDeployment d(64, 31, 0.0, options);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[16]->subscribe(9);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[16]->on_tree(9));
  const PeerId parent = d.nodes[16]->tree_parent(9);
  // Three ack windows' worth of traffic, paced so acks interleave.
  for (int i = 0; i < 12; ++i) {
    d.nodes[0]->publish(9, 2000 + i);
    d.simulator.run();
  }
  // Every window boundary acked: the buffer holds at most the unacked
  // tail, never the full history.
  EXPECT_LT(d.nodes[parent]->send_buffer_depth(9, 16), 12u);
  EXPECT_LE(d.nodes[parent]->send_buffer_depth(9, 16),
            options.reliability.ack_every);
  EXPECT_EQ(d.nodes[16]->expected_seq(9, parent), 12u);
  EXPECT_GT(trace::counters().total(trace::CounterId::kSendBufferHighWater),
            0u);
}

TEST(DataPlane, ValidationRejectsMalformedReliabilityOptions) {
  testing::SmallWorld world(4, 21);
  overlay::OverlayGraph graph(4);
  sim::Simulator simulator;
  Transport transport(simulator, *world.population, TransportOptions{},
                      world.rng);
  const auto reject = [&](const NodeOptions& options) {
    EXPECT_THROW(GroupCastNode(0, transport, graph, options, world.rng),
                 PreconditionError);
  };
  NodeOptions options = reliable_options();
  options.reliability.ack_every = 0;  // no ack cadence at all
  reject(options);
  options = reliable_options();
  options.reliability.flow_control = true;
  options.reliability.window = 0;  // nothing could ever transmit
  reject(options);
  options = reliable_options();
  options.reliability.flow_control = true;
  // Windowed data would fall off the retransmit buffer.
  options.reliability.window = core::kSendBufferCap + 1;
  reject(options);
  // The same values are fine while the features are off.
  options = reliable_options();
  options.reliability.window = 256;
  GroupCastNode ok(0, transport, graph, options, world.rng);
}

// Satellite regression: kSendBufferHighWater tracks each directed edge's
// lifetime peak.  The old node-wide watermark swallowed the second edge's
// growth (it never beat the first edge's record), halving the reported
// peak memory of a two-child fan-out.
TEST(DataPlane, SendBufferHighWaterCountsEachEdge) {
  CounterScope scope(3);
  // Star: 0 is the root, 1 and 2 its only possible children.
  WiredDeployment d(3, {{0, 1}, {0, 2}},
                    [](PeerId) { return reliable_options(); });
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[1]->subscribe(9);
  d.nodes[2]->subscribe(9);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[1]->on_tree(9));
  ASSERT_TRUE(d.nodes[2]->on_tree(9));
  ASSERT_EQ(d.nodes[1]->tree_parent(9), 0u);
  ASSERT_EQ(d.nodes[2]->tree_parent(9), 0u);
  // Burst without running the simulator: both edges' buffers grow to 8
  // before any ack can trim them.
  const std::uint64_t kPayloads = 8;
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    d.nodes[0]->publish(9, 5000 + i);
  }
  EXPECT_EQ(d.nodes[0]->send_buffer_depth(9, 1), kPayloads);
  EXPECT_EQ(d.nodes[0]->send_buffer_depth(9, 2), kPayloads);
  // Per-edge accounting: the counter carries both peaks, not their max.
  EXPECT_EQ(
      trace::counters().total(trace::CounterId::kSendBufferHighWater),
      2 * kPayloads);
  d.simulator.run();
}

// Tentpole acceptance: a child acking at a tenth of the cadence backs data
// up at its parent.  With flow control on, the backlog parks behind the
// window and the per-edge sender buffer stays bounded by the window; every
// payload still arrives exactly once (the ack-overdue probe doubles as the
// ack clock that reopens the window).
TEST(DataPlane, SlowChildFlowControlBoundsSenderBuffer) {
  CounterScope scope(3);
  constexpr std::size_t kWindow = 4;
  const auto options_for = [](PeerId p) {
    NodeOptions options = reliable_options();
    options.reliability.flow_control = true;
    options.reliability.window = kWindow;
    options.reliability.ack_every = 2;
    if (p == 2) options.reliability.ack_every = 1000;  // the slow child
    return options;
  };
  WiredDeployment d(3, {{0, 1}, {0, 2}}, options_for);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[1]->subscribe(9);
  d.nodes[2]->subscribe(9);
  d.simulator.run();
  ASSERT_EQ(d.nodes[2]->tree_parent(9), 0u);
  std::map<std::uint64_t, int> slow_deliveries;
  d.nodes[2]->on_data(
      [&](GroupId, std::uint64_t id, PeerId) { ++slow_deliveries[id]; });
  const std::uint64_t kPayloads = 32;
  std::size_t max_depth = 0;
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    d.nodes[0]->publish(9, 6000 + i);
    max_depth = std::max(max_depth, d.nodes[0]->send_buffer_depth(9, 2));
  }
  // The burst parks behind the window instead of flooding the buffer.
  EXPECT_EQ(d.nodes[0]->pending_depth(9, 2), kPayloads - kWindow);
  EXPECT_GT(trace::counters().total(trace::CounterId::kFlowBlocked), 0u);
  // Probe rounds ack the slow child's progress and reopen the window.
  for (int step = 0; step < 120; ++step) {
    d.simulator.run_until(d.simulator.now() + sim::SimTime::seconds(1));
    max_depth = std::max(max_depth, d.nodes[0]->send_buffer_depth(9, 2));
    if (slow_deliveries.size() == kPayloads) break;
  }
  EXPECT_LE(max_depth, 2 * kWindow);  // the acceptance bound
  EXPECT_EQ(d.nodes[0]->pending_depth(9, 2), 0u);
  ASSERT_EQ(slow_deliveries.size(), kPayloads);
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    EXPECT_EQ(slow_deliveries[6000 + i], 1) << "payload " << 6000 + i;
  }
}

// The documented overflow mode with flow control off: the same slow child
// drives the parent's buffer to the cap, where the oldest unacked entries
// fall off — unrecoverable under loss.  (Zero loss here, so delivery still
// succeeds in order; the pin is the unbounded-versus-bounded depth.)
TEST(DataPlane, SlowChildWithoutFlowControlFillsBufferToCap) {
  CounterScope scope(3);
  const auto options_for = [](PeerId p) {
    NodeOptions options = reliable_options();
    options.reliability.ack_every = p == 2 ? 1000 : 2;
    return options;
  };
  WiredDeployment d(3, {{0, 1}, {0, 2}}, options_for);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[2]->subscribe(9);
  d.simulator.run();
  ASSERT_EQ(d.nodes[2]->tree_parent(9), 0u);
  for (std::uint64_t i = 0; i < core::kSendBufferCap + 32; ++i) {
    d.nodes[0]->publish(9, 7000 + i);
  }
  // Everything beyond the cap fell off the retransmit buffer.
  EXPECT_EQ(d.nodes[0]->send_buffer_depth(9, 2), core::kSendBufferCap);
  EXPECT_EQ(d.nodes[0]->pending_depth(9, 2), 0u);  // nothing parks
  EXPECT_EQ(trace::counters().total(trace::CounterId::kFlowBlocked), 0u);
  d.simulator.run();
}

// Tentpole: a blocked edge throttles the publisher's path, not just its
// own hop.  On the chain 0 -> 1 -> 2 with 2 acking slowly, relay 1's edge
// to 2 blocks, 1 signals its parent, and the backlog accumulates at the
// publisher 0 instead of growing without bound at the relay.
TEST(DataPlane, ThrottlePropagatesUpTheTree) {
  CounterScope scope(3);
  const auto options_for = [](PeerId p) {
    NodeOptions options = reliable_options();
    options.reliability.flow_control = true;
    options.reliability.window = 2;
    options.reliability.ack_every = p == 2 ? 1000 : 1;
    return options;
  };
  WiredDeployment d(3, {{0, 1}, {1, 2}}, options_for);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  d.nodes[2]->subscribe(9);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[2]->on_tree(9));
  ASSERT_EQ(d.nodes[2]->tree_parent(9), 1u);
  ASSERT_EQ(d.nodes[1]->tree_parent(9), 0u);
  std::map<std::uint64_t, int> deliveries;
  d.nodes[2]->on_data(
      [&](GroupId, std::uint64_t id, PeerId) { ++deliveries[id]; });
  const std::uint64_t kPayloads = 16;
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    d.nodes[0]->publish(9, 8000 + i);
    // Pace the burst so the relay's FlowControlMsg can reach 0 mid-burst.
    d.simulator.run_until(d.simulator.now() + sim::SimTime::millis(20));
  }
  const auto snap = trace::counters().snapshot();
  const auto of = [&snap](PeerId node, trace::CounterId id) {
    return snap.per_node[node][static_cast<std::size_t>(id)];
  };
  EXPECT_GT(of(1, trace::CounterId::kFlowThrottles), 0u);  // 1 paused 0
  EXPECT_GT(of(0, trace::CounterId::kFlowBlocked), 0u);  // 0 parked data
  for (int step = 0; step < 120 && deliveries.size() < kPayloads; ++step) {
    d.simulator.run_until(d.simulator.now() + sim::SimTime::seconds(1));
  }
  ASSERT_EQ(deliveries.size(), kPayloads);
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    EXPECT_EQ(deliveries[8000 + i], 1) << "payload " << 8000 + i;
  }
  EXPECT_EQ(d.nodes[0]->pending_depth(9, 1), 0u);
  EXPECT_EQ(d.nodes[1]->pending_depth(9, 2), 0u);
}

TEST(DataPlane, AdaptiveMissThresholdFollowsFalsePositiveMath) {
  // docs/ROBUSTNESS.md: k consecutive misses are a false positive with
  // probability m^k; the threshold is the smallest k with m^k <= 1e-4,
  // clamped to [floor, 12].
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(0.0, 2), 2u);   // quiet
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(0.2, 2), 6u);
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(0.5, 2), 12u);  // capped
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(1.0, 2), 12u);
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(0.001, 4), 4u);  // floor
  // A floor above the adaptive cap wins: adaptivity never narrows it.
  EXPECT_EQ(EdgeLiveness::adaptive_miss_threshold(0.9, 15), 15u);
}

// The reliability counters (nacks_sent / retransmits / dups_suppressed /
// send_buffer_high_water) are part of the grid's determinism contract:
// byte-identical whether the recovery sweep runs sequentially or on four
// workers.
TEST(DataPlane, ReliableRecoveryGridIdenticalAcrossJobCounts) {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.seed = 4242;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.2;
  point.recovery.crash_fraction = 0.15;
  point.recovery.reliable_data = true;

  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.counters = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;

  const std::vector<metrics::ScenarioConfig> points{point};
  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].delivery_ratio, b[0].delivery_ratio);
  EXPECT_EQ(a[0].delivery_ratio_stddev, b[0].delivery_ratio_stddev);
  EXPECT_EQ(a[0].reattached_fraction, b[0].reattached_fraction);
  EXPECT_EQ(a[0].counters.totals, b[0].counters.totals);
  EXPECT_EQ(a[0].counters.per_node, b[0].counters.per_node);
  // The run exercised the data plane, not just the control plane.
  EXPECT_GT(a[0].counters.total(trace::CounterId::kNacksSent), 0u);
  EXPECT_GT(a[0].counters.total(trace::CounterId::kRetransmits), 0u);
}

// The self-tuning transport keeps the same contract: with flow control,
// adaptive detection, and the slow-child impairment all on, the counters
// AND the new histograms (window_occupancy / estimated_loss / throttle_us)
// are byte-identical whatever the worker count.
TEST(DataPlane, SelfTuningGridIdenticalAcrossJobCounts) {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.seed = 4242;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.05;
  point.recovery.reliable_data = true;
  point.recovery.flow_control = true;
  point.recovery.flow_window = 4;
  point.recovery.adaptive = true;
  point.recovery.slow_peer_stride = 5;
  point.recovery.speaking_payloads = 32;

  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.counters = true;
  sequential.histograms = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;

  const std::vector<metrics::ScenarioConfig> points{point};
  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].delivery_ratio, b[0].delivery_ratio);
  EXPECT_EQ(a[0].counters.totals, b[0].counters.totals);
  EXPECT_EQ(a[0].counters.per_node, b[0].counters.per_node);
  EXPECT_EQ(a[0].histograms, b[0].histograms);
  // The run exercised the new machinery, not just the legacy plane.
  EXPECT_GT(a[0].counters.total(trace::CounterId::kFlowBlocked), 0u);
  EXPECT_GT(
      a[0].histograms.of(trace::HistogramId::kWindowOccupancy).count, 0u);
  EXPECT_GT(
      a[0].histograms.of(trace::HistogramId::kEstimatedLoss).count, 0u);
}

}  // namespace
}  // namespace groupcast::core
