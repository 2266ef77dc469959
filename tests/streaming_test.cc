// Acceptance tests for the live-streaming workload harness: option
// validation (bad configs must be rejected loudly, not silently ignored),
// the reliable data plane's miss-ratio bar under loss, the flash crowd's
// attach guarantee, and the determinism contract of multi-source grids
// across worker counts and shard counts.
#include <gtest/gtest.h>

#include <vector>

#include "metrics/experiment.h"
#include "trace/counters.h"
#include "util/require.h"

namespace groupcast {
namespace {

metrics::ScenarioConfig streaming_point() {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.group_size = 40;
  point.seed = 4311;
  point.streaming.enabled = true;
  point.streaming.chunks = 20;
  return point;
}

// The shared runtime fields are covered for both harnesses by
// HarnessValidation; these are the streaming-only ones.
TEST(Streaming, ValidationRejectsBadOptionsLoudly) {
  const auto rejects = [](auto&& mutate) {
    auto point = streaming_point();
    mutate(point.streaming);
    EXPECT_THROW(metrics::run_scenario(point), PreconditionError);
  };
  rejects([](metrics::StreamingOptions& s) { s.chunks = 0; });
  rejects([](metrics::StreamingOptions& s) { s.chunk_interval_seconds = 0; });
  rejects([](metrics::StreamingOptions& s) { s.chunk_bytes = 0; });
  rejects([](metrics::StreamingOptions& s) { s.chunk_bytes = 17u << 20; });
  rejects([](metrics::StreamingOptions& s) { s.deadline_seconds = 0; });
  rejects([](metrics::StreamingOptions& s) { s.uplink_kbps = -1; });
  rejects([](metrics::StreamingOptions& s) { s.downlink_kbps = -1; });
  rejects([](metrics::StreamingOptions& s) { s.sources.publishers = 0; });
  rejects([](metrics::StreamingOptions& s) { s.flash_crowd_seconds = 0; });
}

TEST(Streaming, MutuallyExclusiveWithRecoveryHarness) {
  auto point = streaming_point();
  point.recovery.enabled = true;
  EXPECT_THROW(metrics::run_scenario(point), PreconditionError);
}

// The tentpole acceptance bar: at 5% steady-state loss with the
// NACK/retransmit data plane on the tree edges, viewers must still play
// at least 95% of their eligible chunks by the deadline.
TEST(Streaming, MissRatioUnderFivePercentAtFivePercentLossReliable) {
  auto point = streaming_point();
  point.streaming.loss_probability = 0.05;
  point.streaming.reliable_data = true;
  const auto result = metrics::run_scenario(point);
  EXPECT_LE(result.chunk_miss_ratio, 0.05);
  EXPECT_GT(result.chunks_played_per_viewer, 0.0);
  EXPECT_GT(result.startup_delay_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.subscription_success_rate, 1.0);
}

// Without reliability the same loss rate visibly starves playback — the
// comparison the workload family exists to demonstrate.
TEST(Streaming, ReliabilityWinsBackLostChunks) {
  auto lossy = streaming_point();
  lossy.streaming.loss_probability = 0.05;
  const auto fire_and_forget = metrics::run_scenario(lossy);
  lossy.streaming.reliable_data = true;
  const auto reliable = metrics::run_scenario(lossy);
  EXPECT_GT(fire_and_forget.chunk_miss_ratio, reliable.chunk_miss_ratio);
  EXPECT_GT(fire_and_forget.chunk_miss_ratio, 0.05);
}

// A flash crowd joining the warm tree must fully attach and start
// playing from its join instant (back-catalog chunks are not scored).
TEST(Streaming, FlashCrowdAttachesAndPlays) {
  auto point = streaming_point();
  point.streaming.reliable_data = true;
  point.streaming.flash_crowd_joins = 30;
  const auto result = metrics::run_scenario(point);
  EXPECT_DOUBLE_EQ(result.flash_attach_fraction, 1.0);
  EXPECT_LE(result.chunk_miss_ratio, 0.05);
}

// Bandwidth caps pace every access link; the capped run must still meet
// the deadline at streaming rates, just with more queueing in front of
// each hop (startup can only grow).
TEST(Streaming, BandwidthCapsAddDelayWithoutMisses) {
  auto point = streaming_point();
  const auto uncapped = metrics::run_scenario(point);
  point.streaming.uplink_kbps = 20000;
  point.streaming.downlink_kbps = 20000;
  const auto capped = metrics::run_scenario(point);
  EXPECT_DOUBLE_EQ(capped.chunk_miss_ratio, 0.0);
  EXPECT_GE(capped.startup_delay_ms, uncapped.startup_delay_ms);
}

std::vector<metrics::ScenarioConfig> multi_source_points() {
  std::vector<metrics::ScenarioConfig> points;
  for (const auto mode : {metrics::MultiSourceOptions::Mode::kSharedTree,
                          metrics::MultiSourceOptions::Mode::kPerSourceTrees}) {
    auto point = streaming_point();
    point.streaming.reliable_data = true;
    point.streaming.sources.publishers = 2;
    point.streaming.sources.mode = mode;
    points.push_back(point);
  }
  return points;
}

// Multi-source grids must produce byte-identical numbers — including the
// merged counter totals — whether the grid runs sequentially or on four
// workers (the harness's determinism contract).
TEST(Streaming, MultiSourceGridIdenticalAcrossJobCounts) {
  const auto points = multi_source_points();
  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.counters = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;
  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].chunk_miss_ratio, b[i].chunk_miss_ratio);
    EXPECT_DOUBLE_EQ(a[i].chunk_miss_ratio_stddev,
                     b[i].chunk_miss_ratio_stddev);
    EXPECT_DOUBLE_EQ(a[i].startup_delay_ms, b[i].startup_delay_ms);
    EXPECT_DOUBLE_EQ(a[i].rebuffer_events, b[i].rebuffer_events);
    EXPECT_DOUBLE_EQ(a[i].chunks_played_per_viewer,
                     b[i].chunks_played_per_viewer);
    EXPECT_DOUBLE_EQ(a[i].subscription_messages, b[i].subscription_messages);
    for (const auto id :
         {trace::CounterId::kChunksPublished,
          trace::CounterId::kChunksDelivered, trace::CounterId::kChunksLate,
          trace::CounterId::kChunksMissed, trace::CounterId::kRebufferEvents,
          trace::CounterId::kMessagesSent}) {
      EXPECT_EQ(a[i].counters.total(id), b[i].counters.total(id))
          << "counter " << trace::to_string(id) << " diverged in cell " << i;
    }
  }
  // Both layouts must actually stream: two publishers' worth of chunks.
  for (const auto& r : a) {
    EXPECT_EQ(r.counters.total(trace::CounterId::kChunksPublished),
              2u * 20u * 2u);  // publishers x chunks x repetitions
  }
}

// The sharded event kernel must agree with itself at every shard count.
TEST(Streaming, ShardCountInvariantResults) {
  auto point = streaming_point();
  point.streaming.reliable_data = true;
  point.streaming.loss_probability = 0.05;
  point.streaming.sources.publishers = 2;
  point.shards = 2;
  const auto two = metrics::run_scenario(point);
  point.shards = 4;
  const auto four = metrics::run_scenario(point);
  EXPECT_DOUBLE_EQ(two.chunk_miss_ratio, four.chunk_miss_ratio);
  EXPECT_DOUBLE_EQ(two.startup_delay_ms, four.startup_delay_ms);
  EXPECT_DOUBLE_EQ(two.rebuffer_events, four.rebuffer_events);
  EXPECT_DOUBLE_EQ(two.chunks_played_per_viewer,
                   four.chunks_played_per_viewer);
  EXPECT_DOUBLE_EQ(two.subscription_messages, four.subscription_messages);
}

// A streaming run carries the flight-recorder timeline too, the same at
// one shard and at two: a frame at t = 0, one per epoch boundary, and a
// last one whose totals are the run's.
TEST(Streaming, TimelineIdenticalAcrossShardCounts) {
  metrics::GridOptions options;
  options.counters = true;
  options.timeline = true;
  std::vector<metrics::ScenarioResult> results;
  for (const std::size_t shards : {1u, 2u}) {
    auto point = streaming_point();
    point.shards = shards;
    const std::vector<metrics::ScenarioConfig> points{point};
    results.push_back(metrics::run_scenario_grid(points, options).front());
  }
  const auto& timeline = results[0].timeline;
  ASSERT_GE(timeline.size(), 2u);
  EXPECT_EQ(timeline.front().t_us, 0);
  EXPECT_EQ(timeline[1].t_us, metrics::kEpoch.as_micros());
  EXPECT_EQ(timeline.back().counters, results[0].counters.totals);
  EXPECT_GT(timeline.back().counters[static_cast<std::size_t>(
                trace::CounterId::kChunksDelivered)],
            0u);
  EXPECT_EQ(timeline, results[1].timeline);
}

}  // namespace
}  // namespace groupcast
