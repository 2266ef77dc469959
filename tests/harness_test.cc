// Tests of the node-runtime core both harnesses share
// (metrics/harness_common.h): validation of the shared runtime fields, and
// absolute goldens of each harness's output.
//
// ShardDeterminism (below and in shard_test.cc) and the jobs 1-vs-4 tests only
// compare runs with each other; the goldens pin the actual output of four
// cells, at one shard and at two shards, as named lines: one `name = value`
// line per non-zero ScenarioResult scalar, per message kind, per counter
// (its total and a digest of its per-node column) and per histogram (count,
// sum, min, max and a digest of its bins), keyed by field or enumerator name.
// A mismatch prints the keys that moved and the new block to paste.  The
// two shard counts share every line but the engine gauges
// (events_per_shard, queue_high_water, shard_epochs, lookahead_us), which
// each cell pins apart.  A recovery cell and a streaming cell cover the
// tree and the data plane; a partition cell and a slow-peer cell cover
// rendezvous replication and flow control, which the first two never turn
// on.  Any change to an RNG split, an event schedule or a wire byte moves
// a line; a refactor that keeps the trajectories must keep them all, and a
// change to the shard partition may move only the two-shard gauges.  The
// config echo (ScenarioResult::config) is the run's input, so it is not
// pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/experiment.h"
#include "metrics/harness_common.h"
#include "test_helpers.h"
#include "trace/counters.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/rng.h"

namespace groupcast {
namespace {

/// (key, value) pairs in output order.
using Lines = std::vector<std::pair<std::string, std::string>>;

std::string hex_digest(const testing::Fnv64& digest) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, digest.value());
  return text;
}

/// A run's output as named lines.  Zero values are left out, so a counter
/// or field that never moves off zero adds no line and deleting it moves
/// none.
Lines golden_lines(const metrics::ScenarioResult& r) {
  Lines lines;
  const auto add = [&](std::string key, std::uint64_t value) {
    if (value != 0) lines.emplace_back(std::move(key), std::to_string(value));
  };
  const auto add_double = [&](const char* key, double value) {
    if (value == 0.0) return;
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    lines.emplace_back(key, text);
  };
#define GC_GOLDEN_FIELD(field) add_double(#field, r.field)
  GC_GOLDEN_FIELD(advertisement_messages);
  GC_GOLDEN_FIELD(subscription_messages);
  GC_GOLDEN_FIELD(receiving_rate);
  GC_GOLDEN_FIELD(subscription_success_rate);
  GC_GOLDEN_FIELD(lookup_latency_ms);
  GC_GOLDEN_FIELD(delay_penalty);
  GC_GOLDEN_FIELD(link_stress);
  GC_GOLDEN_FIELD(node_stress);
  GC_GOLDEN_FIELD(overload_index);
  GC_GOLDEN_FIELD(avg_tree_depth);
  GC_GOLDEN_FIELD(avg_tree_nodes);
  GC_GOLDEN_FIELD(delivery_ratio);
  GC_GOLDEN_FIELD(reattached_fraction);
  GC_GOLDEN_FIELD(mean_orphan_epochs);
  GC_GOLDEN_FIELD(epochs_to_converge);
  GC_GOLDEN_FIELD(control_overhead);
  GC_GOLDEN_FIELD(invariant_violations);
  GC_GOLDEN_FIELD(invariant_violations_max);
  GC_GOLDEN_FIELD(partition_majority_delivery);
  GC_GOLDEN_FIELD(partition_minority_delivery);
  GC_GOLDEN_FIELD(lease_handoffs);
  GC_GOLDEN_FIELD(epoch_conflicts);
  GC_GOLDEN_FIELD(chunk_miss_ratio);
  GC_GOLDEN_FIELD(startup_delay_ms);
  GC_GOLDEN_FIELD(rebuffer_events);
  GC_GOLDEN_FIELD(chunks_played_per_viewer);
  GC_GOLDEN_FIELD(flash_attach_fraction);
  GC_GOLDEN_FIELD(delay_penalty_group_stddev);
  GC_GOLDEN_FIELD(overload_index_group_stddev);
  GC_GOLDEN_FIELD(link_stress_group_stddev);
  GC_GOLDEN_FIELD(lookup_latency_group_stddev);
  GC_GOLDEN_FIELD(delay_penalty_stddev);
  GC_GOLDEN_FIELD(overload_index_stddev);
  GC_GOLDEN_FIELD(link_stress_stddev);
  GC_GOLDEN_FIELD(delivery_ratio_stddev);
  GC_GOLDEN_FIELD(reattached_fraction_stddev);
  GC_GOLDEN_FIELD(chunk_miss_ratio_stddev);
#undef GC_GOLDEN_FIELD
  add("repair_edges", r.repair_edges);
  for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
    const auto kind = static_cast<core::MessageKind>(k);
    add(std::string("messages.") + core::to_string(kind),
        r.messages_by_kind.of(kind));
  }
  add("events_fired", r.events_fired);
  add("queue_high_water", r.queue_high_water);
  for (std::size_t i = 0; i < r.events_per_shard.size(); ++i) {
    add("events_per_shard[" + std::to_string(i) + "]",
        r.events_per_shard[i]);
  }
  add("shard_epochs", r.shard_epochs);
  add("lookahead_us", static_cast<std::uint64_t>(r.lookahead_us));
  for (std::size_t id = 0; id < trace::kCounterIds; ++id) {
    const auto counter = static_cast<trace::CounterId>(id);
    const std::uint64_t total = r.counters.total(counter);
    if (total == 0) continue;
    const std::string name =
        std::string("counter.") + trace::to_string(counter);
    add(name, total);
    testing::Fnv64 column;
    for (const auto& row : r.counters.per_node) column.add(row[id]);
    lines.emplace_back(name + ".per_node", hex_digest(column));
  }
  for (std::size_t id = 0; id < trace::kHistogramIds; ++id) {
    const auto histogram = static_cast<trace::HistogramId>(id);
    const auto& data = r.histograms.of(histogram);
    if (data.count == 0) continue;
    const std::string name =
        std::string("histogram.") + trace::to_string(histogram);
    add(name + ".count", data.count);
    add(name + ".sum", data.sum);
    add(name + ".min", data.min);
    add(name + ".max", data.max);
    testing::Fnv64 bins;
    bins.add(std::span<const std::uint64_t>(data.bins));
    lines.emplace_back(name + ".bins", hex_digest(bins));
  }
  add("timeline.frames", r.timeline.size());
  return lines;
}

/// Lines that move with the shard count: how the events split across the
/// shards, how deep one shard's queue got, and the lockstep the split
/// needs.
bool is_engine_gauge(std::string_view key) {
  return key == "queue_high_water" || key == "shard_epochs" ||
         key == "lookahead_us" || key.starts_with("events_per_shard[");
}

Lines without_gauges(Lines lines) {
  std::erase_if(lines, [](const auto& l) { return is_engine_gauge(l.first); });
  return lines;
}

Lines only_gauges(Lines lines) {
  std::erase_if(lines, [](const auto& l) { return !is_engine_gauge(l.first); });
  return lines;
}

/// Parses `name = value` lines; blank lines are skipped.
Lines parse_lines(std::string_view text) {
  Lines lines;
  while (!text.empty()) {
    const auto eol = text.find('\n');
    const auto line = text.substr(0, eol);
    text = eol == std::string_view::npos ? "" : text.substr(eol + 1);
    if (line.empty()) continue;
    const auto eq = line.find(" = ");
    GC_REQUIRE_MSG(eq != std::string_view::npos,
                   "golden line without ' = ': " + std::string(line));
    lines.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  return lines;
}

std::string format_lines(const Lines& lines) {
  std::string text;
  for (const auto& [key, value] : lines) text += key + " = " + value + "\n";
  return text;
}

/// `- key = old` / `+ key = new` for every key whose value differs (a
/// missing key has no line on its side); empty when the two agree.
std::string diff_lines(const Lines& old_lines, const Lines& new_lines) {
  const std::map<std::string, std::string> old_map(old_lines.begin(),
                                                   old_lines.end());
  const std::map<std::string, std::string> new_map(new_lines.begin(),
                                                   new_lines.end());
  std::string diff;
  const auto report = [&](const std::string& key) {
    const auto o = old_map.find(key);
    const auto n = new_map.find(key);
    const bool has_old = o != old_map.end();
    const bool has_new = n != new_map.end();
    if (has_old && has_new && o->second == n->second) return;
    if (has_old) diff += "- " + key + " = " + o->second + "\n";
    if (has_new) diff += "+ " + key + " = " + n->second + "\n";
  };
  // Keys in the new run's order, then the ones it no longer has.
  for (const auto& line : new_lines) report(line.first);
  for (const auto& line : old_lines) {
    if (!new_map.contains(line.first)) report(line.first);
  }
  return diff;
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

/// Checks a cell's golden_lines against `lines` (the lines every shard
/// count shares) plus `gauges` (this shard count's engine gauges).  On a
/// mismatch it prints each moved key, then the new block of whichever
/// literal moved, ready to paste.  `exercised` names counters the cell
/// exists to drive: each must be non-zero, so a pin cannot silently stop
/// covering its code path.
void expect_golden(const metrics::ScenarioConfig& config,
                   std::string_view lines, std::string_view gauges,
                   std::initializer_list<trace::CounterId> exercised = {}) {
  const auto result = run_cell(config);
  const Lines now = golden_lines(result);
  Lines pinned = parse_lines(lines);
  const Lines pinned_gauges = parse_lines(gauges);
  pinned.insert(pinned.end(), pinned_gauges.begin(), pinned_gauges.end());
  const std::string diff = diff_lines(pinned, now);
  std::string paste;
  if (!diff_lines(without_gauges(pinned), without_gauges(now)).empty()) {
    paste += "new lines:\n" + format_lines(without_gauges(now));
  }
  if (!diff_lines(only_gauges(pinned), only_gauges(now)).empty()) {
    paste += "new gauges:\n" + format_lines(only_gauges(now));
  }
  EXPECT_TRUE(diff.empty()) << "golden moved:\n" << diff << paste;
  // Guard against a vacuous pin: the cell must have collected samples.
  EXPECT_GT(result.events_fired, 0u);
  EXPECT_FALSE(result.counters.per_node.empty());
  EXPECT_FALSE(result.histograms.empty());
  for (const auto id : exercised) {
    EXPECT_GT(result.counters.total(id), 0u)
        << "counter " << trace::to_string(id) << " stayed at zero";
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

constexpr std::string_view kRecoveryLines = R"(
subscription_messages = 17496
subscription_success_rate = 1
avg_tree_nodes = 156
delivery_ratio = 1
reattached_fraction = 1
mean_orphan_epochs = 2.5
epochs_to_converge = 3
control_overhead = 117.10588235294118
messages.advertisement = 946
messages.ripple_search = 441
messages.ripple_response = 296
messages.subscribe_join = 309
messages.subscribe_ack = 210
messages.payload = 734
messages.maintenance = 14560
events_fired = 23952
counter.messages_sent = 17496
counter.messages_sent.per_node = 0x6331c9c855775718
counter.messages_received = 15618
counter.messages_received.per_node = 0xeb48d072bd68f388
counter.messages_forwarded = 1496
counter.messages_forwarded.per_node = 0xe29dd0e1a9f5254b
counter.messages_dropped = 2477
counter.messages_dropped.per_node = 0x023b1d4fc971b046
counter.adverts_forwarded = 927
counter.adverts_forwarded.per_node = 0xa01ed9f1201a7fe8
counter.subscribe_attempts = 100
counter.subscribe_attempts.per_node = 0x61283a4815cb2225
counter.subscribe_successes = 104
counter.subscribe_successes.per_node = 0xdb8095ad97c3b965
counter.ripple_searches = 34
counter.ripple_searches.per_node = 0x2c488c14a7e4f2e7
counter.tree_edges = 188
counter.tree_edges.per_node = 0x1740a587f86b4085
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 113
counter.control_retries.per_node = 0x6ed843f494d25546
counter.control_giveups = 2
counter.control_giveups.per_node = 0x32fac0a4c1f00065
counter.orphans_recovered = 8
counter.orphans_recovered.per_node = 0xa4e10b40e2572905
counter.heartbeats = 7281
counter.heartbeats.per_node = 0xb114fba87779d006
counter.nacks_sent = 92
counter.nacks_sent.per_node = 0xd3853deba9d373a1
counter.retransmits = 113
counter.retransmits.per_node = 0xda328a5368a32492
counter.dups_suppressed = 14
counter.dups_suppressed.per_node = 0x0eb3345f2fbd1185
counter.send_buffer_high_water = 576
counter.send_buffer_high_water.per_node = 0x15712f381cd61cd1
histogram.edge_delay_us.count = 15681
histogram.edge_delay_us.sum = 482883992
histogram.edge_delay_us.min = 459
histogram.edge_delay_us.max = 252631
histogram.edge_delay_us.bins = 0x6e14d9d1ee529e53
histogram.hop_count.count = 620
histogram.hop_count.sum = 2736
histogram.hop_count.min = 1
histogram.hop_count.max = 10
histogram.hop_count.bins = 0xf79ee916adc4ee4e
histogram.end_to_end_delay_us.count = 340
histogram.end_to_end_delay_us.sum = 208472455
histogram.end_to_end_delay_us.min = 2265
histogram.end_to_end_delay_us.max = 2400650
histogram.end_to_end_delay_us.bins = 0xce50e2c821c240eb
histogram.nack_repair_us.count = 66
histogram.nack_repair_us.sum = 10236393
histogram.nack_repair_us.min = 1300
histogram.nack_repair_us.max = 678159
histogram.nack_repair_us.bins = 0xf11577446c907ef7
)";
constexpr std::string_view kRecoveryOneShardGauges = R"(
queue_high_water = 377
events_per_shard[0] = 23952
shard_epochs = 7
)";
constexpr std::string_view kRecoveryTwoShardGauges = R"(
queue_high_water = 234
events_per_shard[0] = 14141
events_per_shard[1] = 9811
shard_epochs = 607
lookahead_us = 37752
)";

TEST(HarnessGolden, RecoveryCellOneShard) {
  expect_golden(recovery_cell(1), kRecoveryLines, kRecoveryOneShardGauges);
}

TEST(HarnessGolden, RecoveryCellTwoShards) {
  expect_golden(recovery_cell(2), kRecoveryLines, kRecoveryTwoShardGauges);
}

constexpr std::string_view kStreamingLines = R"(
subscription_messages = 48592
subscription_success_rate = 1
chunk_miss_ratio = 0.037748344370860928
startup_delay_ms = 297.50366250000002
rebuffer_events = 0.33750000000000002
chunks_played_per_viewer = 54.487499999999997
flash_attach_fraction = 1
messages.advertisement = 2853
messages.ripple_search = 434
messages.ripple_response = 332
messages.subscribe_join = 651
messages.subscribe_ack = 482
messages.payload = 9336
messages.maintenance = 34504
events_fired = 57772
counter.messages_sent = 48592
counter.messages_sent.per_node = 0x9a8b2b7560da6563
counter.messages_received = 46144
counter.messages_received.per_node = 0xd5e035423a4c574b
counter.messages_forwarded = 11300
counter.messages_forwarded.per_node = 0x1c0c385ec89c12ba
counter.messages_dropped = 4651
counter.messages_dropped.per_node = 0xa309a2e03f70a48e
counter.adverts_forwarded = 2847
counter.adverts_forwarded.per_node = 0x5bc6b3935c746d4a
counter.subscribe_attempts = 222
counter.subscribe_attempts.per_node = 0x73f47e28fab47b87
counter.subscribe_successes = 222
counter.subscribe_successes.per_node = 0x73f47e28fab47b87
counter.ripple_searches = 46
counter.ripple_searches.per_node = 0xeffb1519533ec885
counter.tree_edges = 444
counter.tree_edges.per_node = 0xc7e3a4897b4774a7
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 190
counter.control_retries.per_node = 0xb2eed187fade7683
counter.control_giveups = 7
counter.control_giveups.per_node = 0x92e30d9d02bff524
counter.heartbeats = 15168
counter.heartbeats.per_node = 0xe978267aa336df95
counter.timers_coalesced = 7887
counter.timers_coalesced.per_node = 0x5083ad0d332fa666
counter.nacks_sent = 556
counter.nacks_sent.per_node = 0xa9ebb722ab840db9
counter.retransmits = 763
counter.retransmits.per_node = 0x4c62b9479f066198
counter.dups_suppressed = 124
counter.dups_suppressed.per_node = 0xf7c5489b8707563f
counter.send_buffer_high_water = 3798
counter.send_buffer_high_water.per_node = 0xd7f84a0c3893a72d
counter.chunks_published = 60
counter.chunks_published.per_node = 0x5dc12bb7ff8a8c31
counter.chunks_delivered = 4489
counter.chunks_delivered.per_node = 0xa1ea35750e7ed86e
counter.chunks_late = 158
counter.chunks_late.per_node = 0x69282797282e4b0b
counter.chunks_missed = 171
counter.chunks_missed.per_node = 0xdfc146f2b6d0f8cc
counter.rebuffer_events = 27
counter.rebuffer_events.per_node = 0x04740577787f2526
histogram.edge_delay_us.count = 46180
histogram.edge_delay_us.sum = 2223165067
histogram.edge_delay_us.min = 481
histogram.edge_delay_us.max = 1995652
histogram.edge_delay_us.bins = 0xf3bee2c66c625234
histogram.hop_count.count = 8573
histogram.hop_count.sum = 46214
histogram.hop_count.min = 1
histogram.hop_count.max = 10
histogram.hop_count.bins = 0xdda85a76253dc22f
histogram.nack_repair_us.count = 432
histogram.nack_repair_us.sum = 60840060
histogram.nack_repair_us.min = 2390
histogram.nack_repair_us.max = 1913350
histogram.nack_repair_us.bins = 0x66bd6846e2102e7f
histogram.chunk_slack_us.count = 4489
histogram.chunk_slack_us.sum = 6750020664
histogram.chunk_slack_us.min = 6322
histogram.chunk_slack_us.max = 1964322
histogram.chunk_slack_us.bins = 0xd4d86832899b7da2
histogram.startup_delay_us.count = 80
histogram.startup_delay_us.sum = 23800293
histogram.startup_delay_us.min = 87089
histogram.startup_delay_us.max = 1017231
histogram.startup_delay_us.bins = 0x913207694de857cb
)";
constexpr std::string_view kStreamingOneShardGauges = R"(
queue_high_water = 1245
events_per_shard[0] = 57772
shard_epochs = 5
)";
constexpr std::string_view kStreamingTwoShardGauges = R"(
queue_high_water = 710
events_per_shard[0] = 28263
events_per_shard[1] = 29509
shard_epochs = 679
lookahead_us = 29758
)";

TEST(HarnessGolden, StreamingCellOneShard) {
  expect_golden(streaming_cell(1), kStreamingLines, kStreamingOneShardGauges);
}

TEST(HarnessGolden, StreamingCellTwoShards) {
  expect_golden(streaming_cell(2), kStreamingLines, kStreamingTwoShardGauges);
}

// The lease and flow-control cells must keep driving their sub-protocols.
constexpr std::initializer_list<trace::CounterId> kLeaseCounters = {
    trace::CounterId::kLeaseRenewals, trace::CounterId::kLeaseHandoffs,
    trace::CounterId::kBackupAttaches};
constexpr std::initializer_list<trace::CounterId> kFlowCounters = {
    trace::CounterId::kFlowBlocked, trace::CounterId::kFlowThrottles,
    trace::CounterId::kNacksSent, trace::CounterId::kRetransmits};

constexpr std::string_view kPartitionLines = R"(
subscription_messages = 16615
subscription_success_rate = 1
avg_tree_nodes = 71
delivery_ratio = 1
reattached_fraction = 1
control_overhead = 44.148148148148145
partition_majority_delivery = 1
partition_minority_delivery = 1
lease_handoffs = 1
messages.advertisement = 962
messages.ripple_search = 967
messages.ripple_response = 693
messages.subscribe_join = 208
messages.subscribe_ack = 116
messages.payload = 548
messages.maintenance = 13121
events_fired = 23715
counter.messages_sent = 16615
counter.messages_sent.per_node = 0xb259d34a967cbf66
counter.messages_received = 16264
counter.messages_received.per_node = 0x9e8771ba74b33e7e
counter.messages_forwarded = 1459
counter.messages_forwarded.per_node = 0x8cfb6f448dcdec74
counter.messages_dropped = 1037
counter.messages_dropped.per_node = 0xc860b228a6a20e92
counter.adverts_forwarded = 955
counter.adverts_forwarded.per_node = 0x79f52d67c98c35f4
counter.subscribe_attempts = 30
counter.subscribe_attempts.per_node = 0xa3b4069277c7bb05
counter.subscribe_successes = 33
counter.subscribe_successes.per_node = 0x24961e0cc6d048e4
counter.ripple_searches = 47
counter.ripple_searches.per_node = 0x972e0b5ede745946
counter.tree_edges = 112
counter.tree_edges.per_node = 0xae3ec3aa92506d45
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 83
counter.control_retries.per_node = 0x312010c8af13e534
counter.control_giveups = 35
counter.control_giveups.per_node = 0x9b25656b961b292c
counter.orphans_recovered = 16
counter.orphans_recovered.per_node = 0x2e9d7c8096d16ae5
counter.heartbeats = 6271
counter.heartbeats.per_node = 0x0ed1e417f839d6fe
counter.lease_renewals = 101
counter.lease_renewals.per_node = 0xec279953c62e5630
counter.lease_handoffs = 1
counter.lease_handoffs.per_node = 0x969b1c1622ac5464
counter.backup_attaches = 3
counter.backup_attaches.per_node = 0xe2136370125c99a4
histogram.edge_delay_us.count = 16282
histogram.edge_delay_us.sum = 624971068
histogram.edge_delay_us.min = 480
histogram.edge_delay_us.max = 208737
histogram.edge_delay_us.bins = 0x76aa1e456177e8b9
histogram.hop_count.count = 548
histogram.hop_count.sum = 2164
histogram.hop_count.min = 1
histogram.hop_count.max = 8
histogram.hop_count.bins = 0x116f1a43aa9a5e9e
histogram.end_to_end_delay_us.count = 108
histogram.end_to_end_delay_us.sum = 24012104
histogram.end_to_end_delay_us.min = 9814
histogram.end_to_end_delay_us.max = 353077
histogram.end_to_end_delay_us.bins = 0x40ac453727af68e1
histogram.handoff_us.count = 1
histogram.handoff_us.sum = 118262
histogram.handoff_us.min = 118262
histogram.handoff_us.max = 118262
histogram.handoff_us.bins = 0xbbc6f293d21fcb44
)";
constexpr std::string_view kPartitionOneShardGauges = R"(
queue_high_water = 224
events_per_shard[0] = 23715
shard_epochs = 8
)";
constexpr std::string_view kPartitionTwoShardGauges = R"(
queue_high_water = 115
events_per_shard[0] = 7936
events_per_shard[1] = 15779
shard_epochs = 1450
lookahead_us = 33385
)";

TEST(HarnessGolden, PartitionCellOneShard) {
  expect_golden(partition_cell(1), kPartitionLines, kPartitionOneShardGauges,
                kLeaseCounters);
}

TEST(HarnessGolden, PartitionCellTwoShards) {
  expect_golden(partition_cell(2), kPartitionLines, kPartitionTwoShardGauges,
                kLeaseCounters);
}

constexpr std::string_view kSlowPeerLines = R"(
subscription_messages = 13101
subscription_success_rate = 1
avg_tree_nodes = 74
delivery_ratio = 0.92708333333333337
reattached_fraction = 1
control_overhead = 41.166666666666664
messages.advertisement = 966
messages.ripple_search = 1310
messages.ripple_response = 912
messages.subscribe_join = 230
messages.subscribe_ack = 116
messages.payload = 2637
messages.maintenance = 6930
events_fired = 15860
counter.messages_sent = 13101
counter.messages_sent.per_node = 0xf62d56202866e812
counter.messages_received = 11705
counter.messages_received.per_node = 0x9a1ed855732b4e8b
counter.messages_forwarded = 3036
counter.messages_forwarded.per_node = 0xad76ea336dd92b43
counter.messages_dropped = 2085
counter.messages_dropped.per_node = 0xe9ed0f26ff841f56
counter.adverts_forwarded = 963
counter.adverts_forwarded.per_node = 0x31b91a08102f71f8
counter.subscribe_attempts = 31
counter.subscribe_attempts.per_node = 0x768d88a1fe12c506
counter.subscribe_successes = 28
counter.subscribe_successes.per_node = 0xeb771f5cf1db0f87
counter.ripple_searches = 60
counter.ripple_searches.per_node = 0xcbd06bcde3dd8485
counter.tree_edges = 88
counter.tree_edges.per_node = 0xbcbff8d126541805
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 95
counter.control_retries.per_node = 0xf157a2c1e3bcfdc4
counter.control_giveups = 25
counter.control_giveups.per_node = 0x3be5b70a2d035986
counter.orphans_recovered = 3
counter.orphans_recovered.per_node = 0xde15650e52370d24
counter.heartbeats = 2976
counter.heartbeats.per_node = 0x066d7e99c05b7bc3
counter.nacks_sent = 325
counter.nacks_sent.per_node = 0xbf434d290a4e5420
counter.retransmits = 418
counter.retransmits.per_node = 0xe2fdacb1f23f6f69
counter.dups_suppressed = 79
counter.dups_suppressed.per_node = 0x5f1a6d0f70b3d50e
counter.send_buffer_high_water = 589
counter.send_buffer_high_water.per_node = 0xb9a3d609a89ecc04
counter.flow_blocked = 697
counter.flow_blocked.per_node = 0xea48f939e53042d2
counter.flow_throttles = 69
counter.flow_throttles.per_node = 0x5cedb4a5bd37b822
histogram.edge_delay_us.count = 11751
histogram.edge_delay_us.sum = 594667328
histogram.edge_delay_us.min = 465
histogram.edge_delay_us.max = 264800
histogram.edge_delay_us.bins = 0x377261ae01d08e74
histogram.hop_count.count = 2170
histogram.hop_count.sum = 8410
histogram.hop_count.min = 1
histogram.hop_count.max = 9
histogram.hop_count.bins = 0xb400e00af0d50c5e
histogram.end_to_end_delay_us.count = 890
histogram.end_to_end_delay_us.sum = 1763679769
histogram.end_to_end_delay_us.min = 154735
histogram.end_to_end_delay_us.max = 3938498
histogram.end_to_end_delay_us.bins = 0x6263f4aa254de691
histogram.nack_repair_us.count = 200
histogram.nack_repair_us.sum = 24780700
histogram.nack_repair_us.min = 930
histogram.nack_repair_us.max = 947445
histogram.nack_repair_us.bins = 0xb69a703db2eb89a1
histogram.window_occupancy.count = 2219
histogram.window_occupancy.sum = 9885
histogram.window_occupancy.min = 1
histogram.window_occupancy.max = 8
histogram.window_occupancy.bins = 0x00cb406b47522bcb
histogram.estimated_loss.count = 3223
histogram.estimated_loss.sum = 565147
histogram.estimated_loss.max = 808
histogram.estimated_loss.bins = 0x9059038539543d51
histogram.throttle_us.count = 66
histogram.throttle_us.sum = 20946395
histogram.throttle_us.min = 1475
histogram.throttle_us.max = 2607688
histogram.throttle_us.bins = 0x711cf2725c4694cf
)";
constexpr std::string_view kSlowPeerOneShardGauges = R"(
queue_high_water = 258
events_per_shard[0] = 15860
shard_epochs = 7
)";
constexpr std::string_view kSlowPeerTwoShardGauges = R"(
queue_high_water = 175
events_per_shard[0] = 5826
events_per_shard[1] = 10034
shard_epochs = 686
lookahead_us = 30766
)";

TEST(HarnessGolden, SlowPeerCellOneShard) {
  expect_golden(slow_peer_cell(1), kSlowPeerLines, kSlowPeerOneShardGauges,
                kFlowCounters);
}

TEST(HarnessGolden, SlowPeerCellTwoShards) {
  expect_golden(slow_peer_cell(2), kSlowPeerLines, kSlowPeerTwoShardGauges,
                kFlowCounters);
}

// One determinism domain: every cell follows the same trajectory at 1, 2
// and 4 shards.  Only the engine gauges may move with the shard count, so
// every other golden line must agree.
void expect_shard_count_invariant(
    metrics::ScenarioConfig (*cell)(std::size_t)) {
  const Lines one = without_gauges(golden_lines(run_cell(cell(1))));
  for (const std::size_t shards : {2u, 4u}) {
    const auto other = run_cell(cell(shards));
    EXPECT_EQ(other.events_per_shard.size(), shards);
    EXPECT_EQ(diff_lines(one, without_gauges(golden_lines(other))), "")
        << shards << " shards diverged from one";
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
  EXPECT_EQ(diff_lines(without_gauges(golden_lines(results[1])),
                       without_gauges(golden_lines(results[0]))),
            "");
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
