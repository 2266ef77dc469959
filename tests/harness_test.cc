// Tests of the node-runtime core both harnesses share
// (metrics/harness_common.h): its phases, validation of the shared
// runtime fields, and absolute goldens of each harness's output.
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
  point.seed = 9005;
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
subscription_messages = 25803
subscription_success_rate = 1
avg_tree_nodes = 153
delivery_ratio = 0.97647058823529409
reattached_fraction = 1
mean_orphan_epochs = 4
epochs_to_converge = 4
control_overhead = 151.02352941176471
messages.advertisement = 946
messages.ripple_search = 443
messages.ripple_response = 296
messages.subscribe_join = 343
messages.subscribe_ack = 223
messages.payload = 685
messages.maintenance = 22867
events_fired = 35329
counter.messages_sent = 25803
counter.messages_sent.per_node = 0x00e8e4ec8960dbba
counter.messages_received = 23029
counter.messages_received.per_node = 0x4312a6122d63d978
counter.messages_forwarded = 1479
counter.messages_forwarded.per_node = 0xd07f4c2aa8897c70
counter.messages_dropped = 3338
counter.messages_dropped.per_node = 0x54f272f972b477b9
counter.adverts_forwarded = 927
counter.adverts_forwarded.per_node = 0xa01ed9f1201a7fe8
counter.subscribe_attempts = 100
counter.subscribe_attempts.per_node = 0x61283a4815cb2225
counter.subscribe_successes = 105
counter.subscribe_successes.per_node = 0xc623058e5b8e7006
counter.ripple_searches = 40
counter.ripple_searches.per_node = 0x6aa4a53dfd35da63
counter.tree_edges = 192
counter.tree_edges.per_node = 0xa48bebbcae2845e7
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 129
counter.control_retries.per_node = 0x73b4a520e75fa204
counter.control_giveups = 5
counter.control_giveups.per_node = 0x10b5862d697a88e6
counter.orphans_recovered = 9
counter.orphans_recovered.per_node = 0x5122a4f349cda664
counter.heartbeats = 22093
counter.heartbeats.per_node = 0x0f9191665cb8d49b
counter.nacks_sent = 92
counter.nacks_sent.per_node = 0x21e917426a18a061
counter.retransmits = 85
counter.retransmits.per_node = 0xc758e02801c50bea
counter.dups_suppressed = 3
counter.dups_suppressed.per_node = 0x1b400abd5ca07d64
counter.send_buffer_high_water = 567
counter.send_buffer_high_water.per_node = 0xf00ba2615a9f007e
histogram.edge_delay_us.count = 23182
histogram.edge_delay_us.sum = 685010579
histogram.edge_delay_us.min = 459
histogram.edge_delay_us.max = 252631
histogram.edge_delay_us.bins = 0x7af6f72e422a11b1
histogram.hop_count.count = 596
histogram.hop_count.sum = 2448
histogram.hop_count.min = 1
histogram.hop_count.max = 10
histogram.hop_count.bins = 0xc2b1c49a32037c16
histogram.end_to_end_delay_us.count = 332
histogram.end_to_end_delay_us.sum = 164219420
histogram.end_to_end_delay_us.min = 2265
histogram.end_to_end_delay_us.max = 2056927
histogram.end_to_end_delay_us.bins = 0x9ccbb42ffc131887
histogram.nack_repair_us.count = 64
histogram.nack_repair_us.sum = 11053022
histogram.nack_repair_us.min = 1300
histogram.nack_repair_us.max = 1004817
histogram.nack_repair_us.bins = 0x766d336715a418f3
)";
constexpr std::string_view kRecoveryOneShardGauges = R"(
queue_high_water = 366
events_per_shard[0] = 35329
shard_epochs = 10
)";
constexpr std::string_view kRecoveryTwoShardGauges = R"(
queue_high_water = 221
events_per_shard[0] = 20356
events_per_shard[1] = 14973
shard_epochs = 899
lookahead_us = 37752
)";

TEST(HarnessGolden, RecoveryCellOneShard) {
  expect_golden(recovery_cell(1), kRecoveryLines, kRecoveryOneShardGauges);
}

TEST(HarnessGolden, RecoveryCellTwoShards) {
  expect_golden(recovery_cell(2), kRecoveryLines, kRecoveryTwoShardGauges);
}

constexpr std::string_view kStreamingLines = R"(
subscription_messages = 44464
subscription_success_rate = 1
chunk_miss_ratio = 0.052759381898454749
startup_delay_ms = 283.96951250000012
rebuffer_events = 0.3125
chunks_played_per_viewer = 53.637500000000003
flash_attach_fraction = 0.90000000000000002
messages.advertisement = 2853
messages.ripple_search = 537
messages.ripple_response = 417
messages.subscribe_join = 675
messages.subscribe_ack = 467
messages.payload = 8955
messages.maintenance = 30560
events_fired = 53797
counter.messages_sent = 44464
counter.messages_sent.per_node = 0xfa31fbe34e7637de
counter.messages_received = 42186
counter.messages_received.per_node = 0xb5a49121d11fa724
counter.messages_forwarded = 11145
counter.messages_forwarded.per_node = 0x3fa479ccb00bed1a
counter.messages_dropped = 4253
counter.messages_dropped.per_node = 0x61a7f6b1f6a97c78
counter.adverts_forwarded = 2847
counter.adverts_forwarded.per_node = 0x5bc6b3935c746d4a
counter.subscribe_attempts = 222
counter.subscribe_attempts.per_node = 0x73f47e28fab47b87
counter.subscribe_successes = 220
counter.subscribe_successes.per_node = 0xeb176a519488e1a7
counter.ripple_searches = 54
counter.ripple_searches.per_node = 0x841253d0bea9fae5
counter.tree_edges = 432
counter.tree_edges.per_node = 0x7a51479d22cbe547
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 210
counter.control_retries.per_node = 0x9b46fc77571205a1
counter.control_giveups = 13
counter.control_giveups.per_node = 0x812f95f720a2b1a4
counter.heartbeats = 26706
counter.heartbeats.per_node = 0xd57c5e744b41106c
counter.timers_coalesced = 7724
counter.timers_coalesced.per_node = 0x660373050c0a981b
counter.nacks_sent = 501
counter.nacks_sent.per_node = 0xb8fd98cb90be3198
counter.retransmits = 537
counter.retransmits.per_node = 0x41c1b8c25c43af06
counter.dups_suppressed = 94
counter.dups_suppressed.per_node = 0x1b47aea73ef4b14f
counter.send_buffer_high_water = 3991
counter.send_buffer_high_water.per_node = 0xd1703b41c5b86c2c
counter.chunks_published = 60
counter.chunks_published.per_node = 0x5dc12bb7ff8a8c31
counter.chunks_delivered = 4403
counter.chunks_delivered.per_node = 0xc078cd2e27c297fa
counter.chunks_late = 134
counter.chunks_late.per_node = 0x9829402cf2072725
counter.chunks_missed = 239
counter.chunks_missed.per_node = 0xa4ab37acef87a5d0
counter.rebuffer_events = 25
counter.rebuffer_events.per_node = 0xb6d9eb7b99c502e6
histogram.edge_delay_us.count = 42242
histogram.edge_delay_us.sum = 2051453067
histogram.edge_delay_us.min = 481
histogram.edge_delay_us.max = 2753136
histogram.edge_delay_us.bins = 0x8bc96b70dcaa32bf
histogram.hop_count.count = 8347
histogram.hop_count.sum = 45043
histogram.hop_count.min = 1
histogram.hop_count.max = 10
histogram.hop_count.bins = 0x8b0b5a502151852c
histogram.nack_repair_us.count = 369
histogram.nack_repair_us.sum = 57189236
histogram.nack_repair_us.min = 2322
histogram.nack_repair_us.max = 2287211
histogram.nack_repair_us.bins = 0xb18724678f41a238
histogram.chunk_slack_us.count = 4403
histogram.chunk_slack_us.sum = 6899891843
histogram.chunk_slack_us.min = 6441
histogram.chunk_slack_us.max = 1964322
histogram.chunk_slack_us.bins = 0xe3dfb6b33ab6ed10
histogram.startup_delay_us.count = 80
histogram.startup_delay_us.sum = 22717561
histogram.startup_delay_us.min = 121393
histogram.startup_delay_us.max = 1188432
histogram.startup_delay_us.bins = 0xb3405ef9eb7f18ab
)";
constexpr std::string_view kStreamingOneShardGauges = R"(
queue_high_water = 1128
events_per_shard[0] = 53797
shard_epochs = 5
)";
constexpr std::string_view kStreamingTwoShardGauges = R"(
queue_high_water = 639
events_per_shard[0] = 26107
events_per_shard[1] = 27690
shard_epochs = 672
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
subscription_messages = 19913
subscription_success_rate = 1
avg_tree_nodes = 77
delivery_ratio = 0.88888888888888884
reattached_fraction = 1
control_overhead = 50.962962962962962
partition_majority_delivery = 1
partition_minority_delivery = 1
lease_handoffs = 1
messages.advertisement = 962
messages.ripple_search = 1272
messages.ripple_response = 1097
messages.subscribe_join = 210
messages.subscribe_ack = 112
messages.payload = 572
messages.maintenance = 15688
events_fired = 28271
counter.messages_sent = 19913
counter.messages_sent.per_node = 0x4bb8ea729401d4d8
counter.messages_received = 19408
counter.messages_received.per_node = 0x22d0f1fea650e302
counter.messages_forwarded = 1459
counter.messages_forwarded.per_node = 0xa41bccfd7829f990
counter.messages_dropped = 1199
counter.messages_dropped.per_node = 0xbbff0fdb886fe994
counter.adverts_forwarded = 955
counter.adverts_forwarded.per_node = 0x43f6368431ce2300
counter.subscribe_attempts = 30
counter.subscribe_attempts.per_node = 0x432d3cf66b488445
counter.subscribe_successes = 37
counter.subscribe_successes.per_node = 0xb025b9c27dc3d6a4
counter.ripple_searches = 64
counter.ripple_searches.per_node = 0x6b4e8548b3ce9163
counter.tree_edges = 112
counter.tree_edges.per_node = 0xcca1a164c3b7bc65
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 100
counter.control_retries.per_node = 0x8e0d3adc77c8d255
counter.control_giveups = 42
counter.control_giveups.per_node = 0xe9a2bf07ba21246f
counter.orphans_recovered = 23
counter.orphans_recovered.per_node = 0xc60ad229c836f644
counter.heartbeats = 14987
counter.heartbeats.per_node = 0x7b2b25c17f63d092
counter.lease_renewals = 108
counter.lease_renewals.per_node = 0xd820c8a23756d669
counter.lease_handoffs = 1
counter.lease_handoffs.per_node = 0x969b1c1622ac5464
counter.backup_attaches = 2
counter.backup_attaches.per_node = 0xe4b2d2f91314cb05
histogram.edge_delay_us.count = 19457
histogram.edge_delay_us.sum = 1024508139
histogram.edge_delay_us.min = 507
histogram.edge_delay_us.max = 252210
histogram.edge_delay_us.bins = 0xc5a082fa908a1197
histogram.hop_count.count = 572
histogram.hop_count.sum = 3468
histogram.hop_count.min = 1
histogram.hop_count.max = 16
histogram.hop_count.bins = 0xd06d59247a64a4a1
histogram.end_to_end_delay_us.count = 96
histogram.end_to_end_delay_us.sum = 44603896
histogram.end_to_end_delay_us.min = 5566
histogram.end_to_end_delay_us.max = 770777
histogram.end_to_end_delay_us.bins = 0x8ce3fcf9c1f705e5
histogram.handoff_us.count = 1
histogram.handoff_us.sum = 423342
histogram.handoff_us.min = 423342
histogram.handoff_us.max = 423342
histogram.handoff_us.bins = 0xfb29518df7abcb84
)";
constexpr std::string_view kPartitionOneShardGauges = R"(
queue_high_water = 319
events_per_shard[0] = 28271
shard_epochs = 9
)";
constexpr std::string_view kPartitionTwoShardGauges = R"(
queue_high_water = 193
events_per_shard[0] = 16699
events_per_shard[1] = 11572
shard_epochs = 1380
lookahead_us = 36285
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
subscription_messages = 8579
subscription_success_rate = 0.96666666666666667
avg_tree_nodes = 74
delivery_ratio = 0.88146551724137934
reattached_fraction = 1
control_overhead = 40.344827586206897
messages.advertisement = 966
messages.ripple_search = 235
messages.ripple_response = 150
messages.subscribe_join = 144
messages.subscribe_ack = 95
messages.payload = 2413
messages.maintenance = 4576
events_fired = 10756
counter.messages_sent = 8579
counter.messages_sent.per_node = 0x8c9895a8afe8039e
counter.messages_received = 7664
counter.messages_received.per_node = 0xb6c45be9c459cf3e
counter.messages_forwarded = 3063
counter.messages_forwarded.per_node = 0xc3bfe0d3c265317c
counter.messages_dropped = 1541
counter.messages_dropped.per_node = 0xb0cf299fbd87045e
counter.adverts_forwarded = 963
counter.adverts_forwarded.per_node = 0x31b91a08102f71f8
counter.subscribe_attempts = 30
counter.subscribe_attempts.per_node = 0x0be01607c7c83b25
counter.subscribe_successes = 29
counter.subscribe_successes.per_node = 0x9cef79ffc9776024
counter.ripple_searches = 20
counter.ripple_searches.per_node = 0x437e22f197ab2fe5
counter.tree_edges = 75
counter.tree_edges.per_node = 0xab5ead9cdf4ae604
counter.joins = 300
counter.joins.per_node = 0x137699999e530fe5
counter.control_retries = 61
counter.control_retries.per_node = 0x8ef48527fcc45be6
counter.control_giveups = 3
counter.control_giveups.per_node = 0xcf16a493cfb38804
counter.heartbeats = 3516
counter.heartbeats.per_node = 0x218fbf073bc9c0b7
counter.nacks_sent = 252
counter.nacks_sent.per_node = 0xb1295c238f42ee65
counter.retransmits = 260
counter.retransmits.per_node = 0x1877366202e7de3d
counter.dups_suppressed = 50
counter.dups_suppressed.per_node = 0x5ce30f779a2412e5
counter.send_buffer_high_water = 584
counter.send_buffer_high_water.per_node = 0x2dd08bd48428ed6d
counter.flow_blocked = 678
counter.flow_blocked.per_node = 0xcae435b6f847e303
counter.flow_throttles = 66
counter.flow_throttles.per_node = 0x95f3115c666ae747
histogram.edge_delay_us.count = 7691
histogram.edge_delay_us.sum = 364087245
histogram.edge_delay_us.min = 465
histogram.edge_delay_us.max = 264800
histogram.edge_delay_us.bins = 0xaa09fdd237a2816a
histogram.hop_count.count = 2118
histogram.hop_count.sum = 9463
histogram.hop_count.min = 1
histogram.hop_count.max = 9
histogram.hop_count.bins = 0x24fb163a73e4c468
histogram.end_to_end_delay_us.count = 818
histogram.end_to_end_delay_us.sum = 1500450100
histogram.end_to_end_delay_us.min = 16032
histogram.end_to_end_delay_us.max = 3999685
histogram.end_to_end_delay_us.bins = 0xd5d2dc5e0e4df7e2
histogram.nack_repair_us.count = 158
histogram.nack_repair_us.sum = 18231720
histogram.nack_repair_us.min = 930
histogram.nack_repair_us.max = 1049278
histogram.nack_repair_us.bins = 0x3652cda99f4f41b5
histogram.window_occupancy.count = 2153
histogram.window_occupancy.sum = 9569
histogram.window_occupancy.min = 1
histogram.window_occupancy.max = 8
histogram.window_occupancy.bins = 0xcc7893c7f0f01f83
histogram.estimated_loss.count = 2328
histogram.estimated_loss.sum = 249735
histogram.estimated_loss.max = 768
histogram.estimated_loss.bins = 0xd54213e999ca93a0
histogram.throttle_us.count = 62
histogram.throttle_us.sum = 22365034
histogram.throttle_us.min = 2214
histogram.throttle_us.max = 3334593
histogram.throttle_us.bins = 0x51955854dd0a51a3
)";
constexpr std::string_view kSlowPeerOneShardGauges = R"(
queue_high_water = 251
events_per_shard[0] = 10756
shard_epochs = 5
)";
constexpr std::string_view kSlowPeerTwoShardGauges = R"(
queue_high_water = 160
events_per_shard[0] = 4066
events_per_shard[1] = 6690
shard_epochs = 467
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

// ------------------------------------------------- the shared phases

using overlay::PeerId;

// The loop each harness spelled out before pick_peers (streaming's viewer
// draw): sample min(count + |excluded|, N) indices, skip the excluded
// ones, keep the first `count`.
std::vector<PeerId> reference_pick(util::Rng& rng, std::size_t peers,
                                   std::size_t count,
                                   const std::vector<PeerId>& excluded) {
  std::vector<char> is_excluded(peers, 0);
  for (const auto p : excluded) is_excluded[p] = 1;
  std::vector<PeerId> picked;
  for (const auto idx :
       rng.sample_indices(peers, std::min(count + excluded.size(), peers))) {
    const auto p = static_cast<PeerId>(idx);
    if (is_excluded[p] != 0 || picked.size() == count) continue;
    picked.push_back(p);
  }
  return picked;
}

// pick_peers draws exactly what the old loop drew from the same RNG
// state, for the harnesses' three draws (subscribers, publishers, viewers
// outside the sources) and for a draw capped at the world size.
TEST(HarnessPhases, PickPeersDrawsWhatTheOldLoopDrew) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto config = node_runtime_point(200, 1);
    config.seed = seed;
    metrics::detail::NodeRuntime runtime(config, config.recovery,
                                         core::TransportOptions{});
    const PeerId rendezvous = runtime.middleware().pick_rendezvous();
    const auto expect_same = [&](std::size_t count,
                                 const std::vector<PeerId>& excluded) {
      util::Rng reference = runtime.rng();
      const auto expected =
          reference_pick(reference, config.peer_count, count, excluded);
      EXPECT_EQ(runtime.pick_peers(count, excluded), expected)
          << "seed " << seed << ", count " << count;
      // Both consumed the same draws.
      EXPECT_EQ(runtime.rng()(), reference());
    };
    expect_same(40, {rendezvous});
    util::Rng copy = runtime.rng();
    auto sources = reference_pick(copy, config.peer_count, 3, {rendezvous});
    expect_same(3, {rendezvous});
    sources.push_back(rendezvous);
    expect_same(40, sources);
    expect_same(config.peer_count, sources);
  }
}

TEST(HarnessPhases, PickPeersNeverReturnsAnExcludedPeer) {
  auto config = node_runtime_point(200, 1);
  config.seed = 9200;
  metrics::detail::NodeRuntime runtime(config, config.recovery,
                                       core::TransportOptions{});
  util::Rng choose(23);
  for (int draw = 0; draw < 16; ++draw) {
    std::vector<PeerId> excluded;
    for (const auto idx : choose.sample_indices(config.peer_count, 10 * draw)) {
      excluded.push_back(static_cast<PeerId>(idx));
    }
    for (const std::size_t count : {1u, 25u, 100u, 200u}) {
      const auto picked = runtime.pick_peers(count, excluded);
      for (const auto p : picked) {
        EXPECT_EQ(std::count(excluded.begin(), excluded.end(), p), 0)
            << "peer " << p << " is excluded";
        EXPECT_EQ(std::count(picked.begin(), picked.end(), p), 1);
      }
      // The draw holds at most |excluded| excluded peers, so it falls
      // short only when the world does.
      if (count + excluded.size() <= config.peer_count) {
        EXPECT_EQ(picked.size(), count);
      } else {
        EXPECT_LE(picked.size(), count);
      }
    }
  }
}

// On a zero-loss world, subscribe() returns only once every subscriber's
// control exchanges are done, and every subscriber is then attached.
TEST(HarnessPhases, SubscribeSettlesAZeroLossWorldAtOneTwoAndFourShards) {
  constexpr core::GroupId kGroup = 1;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    auto config = node_runtime_point(300, shards);
    config.seed = 9201;
    metrics::detail::NodeRuntime runtime(config, config.recovery,
                                         core::TransportOptions{});
    auto& nodes = runtime.nodes();
    const PeerId rendezvous = runtime.middleware().pick_rendezvous();
    nodes[rendezvous]->create_group(kGroup);
    runtime.advance(metrics::kEpoch);
    const auto subscribers = runtime.pick_peers(60, {&rendezvous, 1});
    runtime.subscribe(subscribers, {&kGroup, 1});
    for (const auto s : subscribers) {
      EXPECT_FALSE(nodes[s]->exchange_pending(kGroup))
          << "peer " << s << " at " << shards << " shards";
    }
    EXPECT_EQ(runtime.attached(subscribers, {&kGroup, 1}), subscribers)
        << shards << " shards";
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
