// Tests of the node-runtime core both harnesses share
// (metrics/harness_common.h): validation of the shared runtime fields, and
// absolute goldens of each harness's output.
//
// ShardDeterminism (below and in shard_test.cc) and the jobs 1-vs-4 tests only
// compare runs with each other; the goldens pin the actual output of four
// cells, at one shard and at two shards, as an FNV-64 hash over every
// ScenarioResult metric plus the counter and histogram snapshots.  The two
// differ only in the engine gauges (events_per_shard, queue_high_water).  A
// recovery cell and a streaming cell cover the tree and the data plane; a
// partition cell and a slow-peer cell cover rendezvous replication and flow
// control, which the first two never turn on.  Any change to an RNG split, an
// event schedule or a wire byte moves a hash; a refactor that keeps the
// trajectories must keep all eight, and a change to the shard partition
// may move only the four two-shard pins.  The config echo (ScenarioResult::config)
// is the run's input, so it is not hashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "metrics/experiment.h"
#include "metrics/harness_common.h"
#include "trace/counters.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/rng.h"

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
/// `without_high_water`, when non-zero, also pins the hash with
/// queue_high_water zeroed, so a change that moves only one shard's queue
/// depth is told apart from one that moves how the events split across
/// the shards (the stub-domain partition sets that split).
void expect_golden(const metrics::ScenarioConfig& config,
                   std::uint64_t golden,
                   std::initializer_list<trace::CounterId> exercised = {},
                   std::uint64_t without_high_water = 0) {
  const auto result = run_cell(config);
  const std::uint64_t hash = result_hash(result);
  EXPECT_EQ(hash, golden) << "golden hash moved: now 0x" << std::hex << hash;
  if (without_high_water != 0) {
    auto zeroed = result;
    zeroed.queue_high_water = 0;
    EXPECT_EQ(result_hash(zeroed), without_high_water);
  }
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

TEST(HarnessGolden, RecoveryCellOneShard) {
  expect_golden(recovery_cell(1), 0x5989b7c1c7c671bbull);
}

TEST(HarnessGolden, RecoveryCellTwoShards) {
  expect_golden(recovery_cell(2), 0xb483ccff1b66ce0aull, {},
                0x89b4e0187f6806b8ull);
}

TEST(HarnessGolden, StreamingCellOneShard) {
  expect_golden(streaming_cell(1), 0x2c58305757fbbd19ull);
}

TEST(HarnessGolden, StreamingCellTwoShards) {
  expect_golden(streaming_cell(2), 0x2b353bee0274bc05ull, {},
                0x695a156fd460f2f5ull);
}

// The lease and flow-control cells must keep driving their sub-protocols.
constexpr std::initializer_list<trace::CounterId> kLeaseCounters = {
    trace::CounterId::kLeaseRenewals, trace::CounterId::kLeaseHandoffs,
    trace::CounterId::kBackupAttaches};
constexpr std::initializer_list<trace::CounterId> kFlowCounters = {
    trace::CounterId::kFlowBlocked, trace::CounterId::kFlowThrottles,
    trace::CounterId::kNacksSent, trace::CounterId::kRetransmits};

TEST(HarnessGolden, PartitionCellOneShard) {
  expect_golden(partition_cell(1), 0xc901ee1f8f9432ffull, kLeaseCounters);
}

TEST(HarnessGolden, PartitionCellTwoShards) {
  expect_golden(partition_cell(2), 0x5205c35d8a0fca7dull, kLeaseCounters,
                0x3f4281c53ea5c912ull);
}

TEST(HarnessGolden, SlowPeerCellOneShard) {
  expect_golden(slow_peer_cell(1), 0xa4304143564e5a69ull, kFlowCounters);
}

TEST(HarnessGolden, SlowPeerCellTwoShards) {
  expect_golden(slow_peer_cell(2), 0xdbbb73a3373f3bb4ull, kFlowCounters,
                0x4916205e49b0b9a7ull);
}

// One determinism domain: every cell follows the same trajectory at 1, 2
// and 4 shards.  Only the engine gauges may move with the shard count —
// how the events split across the shards and how deep one shard's queue
// got — so the full result hash must agree once those two are cleared.
void expect_shard_count_invariant(
    metrics::ScenarioConfig (*cell)(std::size_t)) {
  const auto without_gauges = [](metrics::ScenarioResult r) {
    r.events_per_shard.clear();
    r.queue_high_water = 0;
    return r;
  };
  const auto one = run_cell(cell(1));
  for (const std::size_t shards : {2u, 4u}) {
    const auto other = run_cell(cell(shards));
    EXPECT_EQ(other.events_per_shard.size(), shards);
    EXPECT_EQ(result_hash(without_gauges(other)),
              result_hash(without_gauges(one)))
        << shards << " shards diverged from one";
    EXPECT_EQ(other.invariant_violations_max, one.invariant_violations_max);
    EXPECT_EQ(other.counters.totals, one.counters.totals);
    EXPECT_EQ(other.counters.per_node, one.counters.per_node);
    EXPECT_EQ(other.histograms.data, one.histograms.data);
  }
}

TEST(ShardDeterminism, RecoveryCellIdenticalAtOneTwoAndFourShards) {
  expect_shard_count_invariant(&recovery_cell);
}

TEST(ShardDeterminism, StreamingCellIdenticalAtOneTwoAndFourShards) {
  expect_shard_count_invariant(&streaming_cell);
}

TEST(ShardDeterminism, PartitionCellIdenticalAtOneTwoAndFourShards) {
  expect_shard_count_invariant(&partition_cell);
}

TEST(ShardDeterminism, SlowPeerCellIdenticalAtOneTwoAndFourShards) {
  expect_shard_count_invariant(&slow_peer_cell);
}

// ----------------------------------------------- choosing the shard count

using metrics::detail::kPeersPerShard;
using metrics::detail::resolve_shards;

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

metrics::ScenarioConfig node_runtime_point(std::size_t peers,
                                           std::size_t shards = 0) {
  metrics::ScenarioConfig point;
  point.peer_count = peers;
  point.shards = shards;
  point.recovery.enabled = true;
  return point;
}

TEST(HarnessShards, EngineLevelRunsOnOneShard) {
  metrics::ScenarioConfig engine_level;
  engine_level.peer_count = 100 * kPeersPerShard;
  EXPECT_EQ(resolve_shards(engine_level), 1u);
}

TEST(HarnessShards, OneShardBelowTwicePeersPerShardThenEveryThread) {
  EXPECT_EQ(resolve_shards(node_runtime_point(300)), 1u);
  EXPECT_EQ(resolve_shards(node_runtime_point(2 * kPeersPerShard - 1)), 1u);
  EXPECT_EQ(resolve_shards(node_runtime_point(2 * kPeersPerShard)),
            hardware_threads());
  EXPECT_EQ(resolve_shards(node_runtime_point(4 * kPeersPerShard)),
            hardware_threads());
  // Streaming resolves by the same rule.
  auto streaming = node_runtime_point(4 * kPeersPerShard);
  streaming.recovery.enabled = false;
  streaming.streaming.enabled = true;
  EXPECT_EQ(resolve_shards(streaming), hardware_threads());
}

TEST(HarnessShards, NeverMoreShardsThanPeersOrHardwareThreads) {
  for (const std::size_t peers :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, kPeersPerShard - 1,
        kPeersPerShard, 3 * kPeersPerShard + 1, 1000 * kPeersPerShard}) {
    const std::size_t shards = resolve_shards(node_runtime_point(peers));
    EXPECT_GE(shards, 1u) << peers << " peers";
    EXPECT_LE(shards, peers) << peers << " peers";
    EXPECT_LE(shards, hardware_threads()) << peers << " peers";
  }
}

TEST(HarnessShards, OneShardUnderATraceSink) {
  const auto big = node_runtime_point(100 * kPeersPerShard);
  {
    const trace::ScopedSink sink(std::make_unique<trace::NullSink>());
    EXPECT_EQ(resolve_shards(big), 1u);
  }
  EXPECT_EQ(resolve_shards(big), hardware_threads());
}

TEST(HarnessShards, OneShardOnAParallelForWorker) {
  const auto big = node_runtime_point(100 * kPeersPerShard);
  std::vector<std::size_t> resolved(2, 0);
  std::vector<char> on_worker(2, 0);
  util::parallel_for(
      resolved.size(), 1,
      [&](std::size_t i) {
        on_worker[i] = util::in_parallel_worker() ? 1 : 0;
        resolved[i] = resolve_shards(big);
      },
      /*workers=*/2);
  EXPECT_EQ(on_worker, std::vector<char>(2, 1));
  EXPECT_EQ(resolved, std::vector<std::size_t>(2, 1));
  EXPECT_FALSE(util::in_parallel_worker());
}

TEST(HarnessShards, ExplicitCountIsKept) {
  const trace::ScopedSink sink(std::make_unique<trace::NullSink>());
  EXPECT_EQ(resolve_shards(node_runtime_point(300, 3)), 3u);
  EXPECT_EQ(resolve_shards(node_runtime_point(100 * kPeersPerShard, 1)), 1u);
  std::vector<std::size_t> on_workers(2, 0);
  util::parallel_for(
      on_workers.size(), 1,
      [&](std::size_t i) {
        on_workers[i] = resolve_shards(node_runtime_point(300, 3));
      },
      /*workers=*/2);
  EXPECT_EQ(on_workers, std::vector<std::size_t>(2, 3));
}

// Left to choose, a run executes on exactly the resolved count and records
// it; on a world big enough to shard (one shard per hardware thread) the
// result equals the one-shard run's but for the engine gauges.  One world,
// forked by both runs of the grid.
TEST(HarnessShards, ChosenCountRunsAndMatchesOneShard) {
  auto chosen = node_runtime_point(2 * kPeersPerShard);
  chosen.groups = 1;
  chosen.group_size = 20;
  chosen.seed = 9005;
  chosen.recovery.loss_probability = 0.1;
  chosen.recovery.crash_fraction = 0.15;
  chosen.recovery.reliable_data = true;
  auto one = chosen;
  one.shards = 1;
  const std::size_t resolved = resolve_shards(chosen);
  EXPECT_EQ(resolved, hardware_threads());

  metrics::GridOptions options;
  options.counters = true;
  options.histograms = true;
  const std::vector<metrics::ScenarioConfig> points{chosen, one};
  auto results = metrics::run_scenario_grid(points, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].config.shards, resolved);
  EXPECT_EQ(results[0].events_per_shard.size(), resolved);
  EXPECT_EQ(results[1].config.shards, 1u);
  EXPECT_EQ(static_cast<double>(results[0].messages_by_kind.total()),
            results[0].subscription_messages);
  for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
    const auto kind = static_cast<core::MessageKind>(k);
    EXPECT_EQ(results[0].messages_by_kind.of(kind),
              results[1].messages_by_kind.of(kind))
        << core::to_string(kind);
  }
  for (auto& r : results) {
    r.events_per_shard.clear();
    r.queue_high_water = 0;
  }
  EXPECT_EQ(result_hash(results[0]), result_hash(results[1]));
  EXPECT_EQ(results[0].counters.totals, results[1].counters.totals);
  EXPECT_EQ(results[0].histograms.data, results[1].histograms.data);
  EXPECT_GT(results[0].counters.total(trace::CounterId::kNacksSent), 0u);
}

// A sharded run reports the ShardSet's epochs and the partition's
// lookahead, which span the cell's stub-domain gateway links; a one-shard
// run has one epoch per advance and no lookahead.
TEST(HarnessShards, ResultCarriesEpochsAndLookahead) {
  const auto one = run_cell(recovery_cell(1));
  const auto two = run_cell(recovery_cell(2));
  EXPECT_EQ(one.lookahead_us, 0);
  EXPECT_GT(one.shard_epochs, 0u);
  // Two access links plus at least one 5 ms transit-stub gateway link.
  EXPECT_GT(two.lookahead_us, 5'000);
  EXPECT_GT(two.shard_epochs, one.shard_epochs);
  EXPECT_LT(two.shard_epochs, two.events_fired);
}

// --------------------------------------- node calls on the shard workers

// on_shards visits every listed peer exactly once, on the worker thread of
// its own shard (the calling thread at one shard), and each shard in the
// order the list gives its peers.
TEST(HarnessOnShards, VisitsEachListedPeerOnceOnItsWorkerInListOrder) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    auto config = node_runtime_point(300, shards);
    config.seed = 9006;
    metrics::detail::NodeRuntime runtime(config, config.recovery,
                                         core::TransportOptions{});
    std::vector<std::thread::id> worker(shards);
    runtime.engine().exec_on_shards(
        [&](std::size_t i) { worker[i] = std::this_thread::get_id(); });
    if (shards == 1) {
      EXPECT_EQ(worker[0], std::this_thread::get_id());
    }

    std::vector<overlay::PeerId> peers;
    for (overlay::PeerId p = 0; p < config.peer_count; p += 3) {
      peers.push_back(p);
    }
    util::Rng order(17);
    order.shuffle(peers);
    // Each shard appends only to its own slot, from its own worker.
    struct Visit {
      overlay::PeerId peer;
      std::thread::id thread;
    };
    std::vector<std::vector<Visit>> visits(shards);
    runtime.on_shards(peers, [&](overlay::PeerId p) {
      visits[runtime.shard_of(p)].push_back({p, std::this_thread::get_id()});
    });

    std::size_t total = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      std::vector<overlay::PeerId> expected;
      for (const auto p : peers) {
        if (runtime.shard_of(p) == i) expected.push_back(p);
      }
      std::vector<overlay::PeerId> seen;
      for (const auto& visit : visits[i]) {
        seen.push_back(visit.peer);
        EXPECT_EQ(visit.thread, worker[i]) << "peer " << visit.peer;
      }
      EXPECT_EQ(seen, expected) << "shard " << i << " of " << shards;
      total += seen.size();
    }
    EXPECT_EQ(total, peers.size());
  }
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
