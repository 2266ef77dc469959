// Tests of the node-runtime core both harnesses share
// (metrics/harness_common.h): validation of the shared runtime fields, and
// absolute goldens of each harness's output.
//
// ShardDeterminism and the jobs 1-vs-4 tests only compare runs with each
// other; the goldens pin the actual output of four cells, at the single
// wheel and at two shards, as an FNV-64 hash over every ScenarioResult
// metric plus the counter and histogram snapshots.  A recovery cell and a
// streaming cell cover the tree and the data plane; a partition cell and
// a slow-peer cell cover rendezvous replication and flow control, which
// the first two never turn on.  Any change to an RNG split, an event
// schedule or a wire byte moves a hash; a refactor that keeps the
// trajectories must keep all eight.  The config echo
// (ScenarioResult::config) is the run's input, so it is not hashed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "metrics/experiment.h"
#include "trace/counters.h"
#include "util/require.h"

namespace groupcast {
namespace {

class Fnv64 {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
  }
  template <typename Range>
  void add_all(const Range& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const auto& v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::uint64_t result_hash(const metrics::ScenarioResult& r) {
  Fnv64 h;
  for (const double field : {
           r.advertisement_messages,
           r.subscription_messages,
           r.receiving_rate,
           r.subscription_success_rate,
           r.lookup_latency_ms,
           r.delay_penalty,
           r.link_stress,
           r.node_stress,
           r.overload_index,
           r.avg_tree_depth,
           r.avg_tree_nodes,
           r.delivery_ratio,
           r.reattached_fraction,
           r.mean_orphan_epochs,
           r.epochs_to_converge,
           r.control_overhead,
           r.invariant_violations,
           r.partition_majority_delivery,
           r.partition_minority_delivery,
           r.lease_handoffs,
           r.epoch_conflicts,
           r.chunk_miss_ratio,
           r.startup_delay_ms,
           r.rebuffer_events,
           r.chunks_played_per_viewer,
           r.flash_attach_fraction,
           r.delay_penalty_group_stddev,
           r.overload_index_group_stddev,
           r.link_stress_group_stddev,
           r.lookup_latency_group_stddev,
           r.delay_penalty_stddev,
           r.overload_index_stddev,
           r.link_stress_stddev,
           r.delivery_ratio_stddev,
           r.reattached_fraction_stddev,
           r.chunk_miss_ratio_stddev,
       }) {
    h.add(field);
  }
  h.add(static_cast<std::uint64_t>(r.repair_edges));
  h.add(r.events_fired);
  h.add(r.queue_high_water);
  h.add_all(r.events_per_shard);
  h.add_all(r.counters.totals);
  h.add(static_cast<std::uint64_t>(r.counters.per_node.size()));
  for (const auto& row : r.counters.per_node) h.add_all(row);
  for (const auto& data : r.histograms.data) {
    h.add_all(data.bins);
    h.add(data.count);
    h.add(data.sum);
    h.add(data.min);
    h.add(data.max);
  }
  h.add(static_cast<std::uint64_t>(r.timeline.size()));
  return h.value();
}

metrics::ScenarioResult run_cell(const metrics::ScenarioConfig& config) {
  metrics::GridOptions options;
  options.counters = true;
  options.histograms = true;
  const std::vector<metrics::ScenarioConfig> points{config};
  auto results = metrics::run_scenario_grid(points, options);
  EXPECT_EQ(results.size(), 1u);
  return results.front();
}

/// `exercised` names counters the cell exists to drive: each must be
/// non-zero, so a pin cannot silently stop covering its code path.
void expect_golden(const metrics::ScenarioConfig& config,
                   std::uint64_t golden,
                   std::initializer_list<trace::CounterId> exercised = {}) {
  const auto result = run_cell(config);
  const std::uint64_t hash = result_hash(result);
  EXPECT_EQ(hash, golden) << "golden hash moved: now 0x" << std::hex << hash;
  // Guard against a vacuous pin: the cell must have collected samples.
  EXPECT_GT(result.events_fired, 0u);
  EXPECT_FALSE(result.counters.per_node.empty());
  EXPECT_FALSE(result.histograms.empty());
  for (const auto id : exercised) {
    EXPECT_GT(result.counters.total(id), 0u)
        << "counter " << static_cast<int>(id) << " stayed at zero";
  }
}

// 300 peers with 100 subscribers, 10% steady loss, 15% ungraceful crashes,
// reliable data plane.
metrics::ScenarioConfig recovery_cell(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 300;
  point.groups = 1;
  point.group_size = 100;
  point.seed = 9001;
  point.shards = shards;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.1;
  point.recovery.crash_fraction = 0.15;
  point.recovery.reliable_data = true;
  return point;
}

// Three per-source trees to 60 viewers through capacity-scaled caps at 5%
// loss over the reliable data plane, plus a flash crowd joining mid-stream.
metrics::ScenarioConfig streaming_cell(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 300;
  point.groups = 1;
  point.group_size = 60;
  point.seed = 9002;
  point.shards = shards;
  auto& str = point.streaming;
  str.enabled = true;
  str.loss_probability = 0.05;
  str.reliable_data = true;
  str.chunks = 20;
  str.uplink_kbps = 4'000.0;
  str.downlink_kbps = 16'000.0;
  str.scale_caps_with_capacity = true;
  str.sources.publishers = 3;
  str.sources.mode = metrics::MultiSourceOptions::Mode::kPerSourceTrees;
  str.flash_crowd_joins = 20;
  return point;
}

// Rendezvous replication through a 30 s RP-side partition after 10%
// crashes: the lease rounds, the takeover and the heal's log merge.
metrics::ScenarioConfig partition_cell(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 300;
  point.groups = 1;
  point.seed = 9003;
  point.shards = shards;
  auto& rec = point.recovery;
  rec.enabled = true;
  rec.crash_fraction = 0.1;
  rec.replication = true;
  rec.replicas = 3;
  rec.partition_seconds = 30.0;
  return point;
}

// Every fifth peer acks at a tenth of the cadence behind an 8-sequence
// window at 10% loss, with adaptive detection: flow control parks and
// drains, throttles travel up the tree, and the NACK cadence adapts.
metrics::ScenarioConfig slow_peer_cell(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 300;
  point.groups = 1;
  point.seed = 9004;
  point.shards = shards;
  auto& rec = point.recovery;
  rec.enabled = true;
  rec.loss_probability = 0.1;
  rec.reliable_data = true;
  rec.flow_control = true;
  rec.flow_window = 8;
  rec.adaptive = true;
  rec.slow_peer_stride = 5;
  rec.speaking_payloads = 32;
  return point;
}

TEST(HarnessGolden, RecoveryCellSingleWheel) {
  expect_golden(recovery_cell(1), 0x01397e3b7a15f18eull);
}

TEST(HarnessGolden, RecoveryCellTwoShards) {
  expect_golden(recovery_cell(2), 0x095f7ce6281b9edaull);
}

TEST(HarnessGolden, StreamingCellSingleWheel) {
  expect_golden(streaming_cell(1), 0xc4a768d3581a49f4ull);
}

TEST(HarnessGolden, StreamingCellTwoShards) {
  expect_golden(streaming_cell(2), 0x69ec9d1e1f69ba87ull);
}

// The lease and flow-control cells must keep driving their sub-protocols.
constexpr std::initializer_list<trace::CounterId> kLeaseCounters = {
    trace::CounterId::kLeaseRenewals, trace::CounterId::kLeaseHandoffs,
    trace::CounterId::kBackupAttaches};
constexpr std::initializer_list<trace::CounterId> kFlowCounters = {
    trace::CounterId::kFlowBlocked, trace::CounterId::kFlowThrottles,
    trace::CounterId::kNacksSent, trace::CounterId::kRetransmits};

TEST(HarnessGolden, PartitionCellSingleWheel) {
  expect_golden(partition_cell(1), 0x634b6c7aaeafdfc9ull, kLeaseCounters);
}

TEST(HarnessGolden, PartitionCellTwoShards) {
  expect_golden(partition_cell(2), 0xdbf630d3116c78ceull, kLeaseCounters);
}

TEST(HarnessGolden, SlowPeerCellSingleWheel) {
  expect_golden(slow_peer_cell(1), 0x3b15ac685057896eull, kFlowCounters);
}

TEST(HarnessGolden, SlowPeerCellTwoShards) {
  expect_golden(slow_peer_cell(2), 0xe3faeaa12e906d8full, kFlowCounters);
}

// The shared runtime fields are validated once, for both harnesses:
// each bad value must be rejected loudly by recovery and streaming alike.
TEST(HarnessValidation, SharedRuntimeFieldsRejectedByBothHarnesses) {
  using Mutation = void (*)(metrics::RuntimeOptions&);
  const struct {
    const char* what;
    Mutation mutate;
  } cases[] = {
      {"loss above 1",
       [](metrics::RuntimeOptions& o) { o.loss_probability = 1.5; }},
      {"negative loss",
       [](metrics::RuntimeOptions& o) { o.loss_probability = -0.1; }},
      {"flow control without reliable data",
       [](metrics::RuntimeOptions& o) {
         o.flow_control = true;
         o.reliable_data = false;
       }},
  };
  using Select = metrics::RuntimeOptions& (*)(metrics::ScenarioConfig&);
  const struct {
    const char* name;
    metrics::ScenarioConfig point;
    Select runtime;
  } harnesses[] = {
      {"recovery", recovery_cell(1),
       [](metrics::ScenarioConfig& c) -> metrics::RuntimeOptions& {
         return c.recovery;
       }},
      {"streaming", streaming_cell(1),
       [](metrics::ScenarioConfig& c) -> metrics::RuntimeOptions& {
         return c.streaming;
       }},
  };
  for (const auto& harness : harnesses) {
    SCOPED_TRACE(harness.name);
    // The unmutated cell runs, so each rejection below is the mutation's.
    EXPECT_NO_THROW(metrics::run_scenario(harness.point));
    for (const auto& c : cases) {
      SCOPED_TRACE(c.what);
      auto point = harness.point;
      c.mutate(harness.runtime(point));
      EXPECT_THROW(metrics::run_scenario(point), PreconditionError);
    }
  }
}

}  // namespace
}  // namespace groupcast
