// Tests for the sim-time histogram registry, the flight recorder, the
// provenance packing, and the determinism contract the grid harness
// relies on: log-binned integer merges are order-independent, scoped
// injection isolates per-run state, and --jobs=1 vs --jobs=4 produce
// identical histograms and timelines.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "metrics/experiment.h"
#include "trace/event.h"
#include "trace/flight_recorder.h"
#include "trace/histogram.h"

namespace {

using namespace groupcast;
using trace::FlightFrame;
using trace::HistogramData;
using trace::HistogramId;

// Every test leaves the thread-default facilities disabled and empty.
class FacilitiesGuard {
 public:
  FacilitiesGuard() { reset(); }
  ~FacilitiesGuard() { reset(); }

 private:
  static void reset() {
    trace::counters().disable();
    trace::counters().reset();
    trace::histograms().disable();
    trace::histograms().reset();
    trace::flight_recorder().disable();
    trace::flight_recorder().reset();
  }
};

TEST(HistogramBin, Log2Mapping) {
  EXPECT_EQ(trace::histogram_bin(0), 0u);
  EXPECT_EQ(trace::histogram_bin(1), 1u);
  EXPECT_EQ(trace::histogram_bin(2), 2u);
  EXPECT_EQ(trace::histogram_bin(3), 2u);
  EXPECT_EQ(trace::histogram_bin(4), 3u);
  EXPECT_EQ(trace::histogram_bin(1023), 10u);
  EXPECT_EQ(trace::histogram_bin(1024), 11u);
  // The last bin absorbs everything with bit_width >= 64.
  EXPECT_EQ(trace::histogram_bin(~std::uint64_t{0}), 63u);
  // Bin floors invert the mapping at each bin's lower edge.
  for (std::size_t bin = 0; bin < trace::kHistogramBins - 1; ++bin) {
    EXPECT_EQ(trace::histogram_bin(trace::histogram_bin_floor(bin)), bin);
  }
}

TEST(HistogramData, RecordTracksExactSummaries) {
  HistogramData h;
  for (const std::uint64_t v : {7u, 0u, 100u, 3u}) h.record(v);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 110u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 27.5);
  EXPECT_EQ(h.percentile(0.0), 0u);    // exact min
  EXPECT_EQ(h.percentile(1.0), 100u);  // exact max
}

TEST(HistogramData, MergeIsOrderIndependent) {
  const std::vector<std::uint64_t> samples = {1, 5, 9, 0, 1u << 20, 77, 3};
  HistogramData all;
  for (const auto v : samples) all.record(v);

  HistogramData a, b;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 2 == 0 ? a : b).record(samples[i]);
  }
  HistogramData ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, all);
}

TEST(HistogramRegistry, DisabledRecordIsANoOp) {
  FacilitiesGuard guard;
  trace::histograms().record(HistogramId::kHopCount, 3);
  EXPECT_EQ(trace::histograms().of(HistogramId::kHopCount).count, 0u);

  trace::histograms().enable();
  trace::histograms().record(HistogramId::kHopCount, 3);
  EXPECT_EQ(trace::histograms().of(HistogramId::kHopCount).count, 1u);
}

TEST(HistogramRegistry, ScopedInjectionRedirectsAndRestores) {
  FacilitiesGuard guard;
  trace::HistogramRegistry isolated;
  isolated.enable();
  {
    trace::ScopedHistogramRegistry scope(isolated);
    trace::histograms().record(HistogramId::kEdgeDelayUs, 42);
  }
  EXPECT_EQ(isolated.of(HistogramId::kEdgeDelayUs).count, 1u);
  // The thread default saw nothing and is still disabled.
  EXPECT_EQ(trace::histograms().of(HistogramId::kEdgeDelayUs).count, 0u);
  EXPECT_FALSE(trace::histograms().enabled());
}

TEST(Provenance, PackUnpackRoundTrips) {
  const auto packed = trace::pack_provenance(1234, 0xDEADBEEF, 7);
  const auto p = trace::unpack_provenance(packed);
  EXPECT_EQ(p.origin, 1234u);
  EXPECT_EQ(p.payload_id, 0xDEADBEEFu);
  EXPECT_EQ(p.hops, 7u);
  // payload_id is truncated to its low 32 bits by design.
  const auto wide =
      trace::unpack_provenance(trace::pack_provenance(9, 0x1'00000002, 1));
  EXPECT_EQ(wide.payload_id, 2u);
}

TEST(FlightRecorder, RingBoundsAndSameStampOverwrite) {
  FacilitiesGuard guard;
  trace::counters().enable(4);
  trace::flight_recorder().enable(/*capacity=*/3);

  const auto capture = [](std::int64_t t_us) {
    FlightFrame frame;
    frame.t_us = t_us;
    frame.add(trace::counters(), trace::histograms());
    trace::flight_recorder().capture(frame);
  };
  for (std::int64_t t = 0; t < 5; ++t) {
    trace::counters().incr(0, trace::CounterId::kMessagesSent);
    capture(t * 1000);
  }
  auto frames = trace::flight_recorder().frames();
  ASSERT_EQ(frames.size(), 3u);  // oldest two dropped
  EXPECT_EQ(frames.front().t_us, 2000);
  EXPECT_EQ(frames.back().t_us, 4000);
  const auto sent = static_cast<std::size_t>(trace::CounterId::kMessagesSent);
  EXPECT_EQ(frames.back().counters[sent], 5u);

  // Re-capturing the newest stamp overwrites instead of appending.
  trace::counters().incr(0, trace::CounterId::kMessagesSent);
  capture(4000);
  frames = trace::flight_recorder().frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames.back().counters[sent], 6u);
}

TEST(FlightRecorder, MergeTimelinesSumsEqualStamps) {
  const auto frame = [](std::int64_t t, std::uint64_t sent) {
    FlightFrame f;
    f.t_us = t;
    f.counters[static_cast<std::size_t>(trace::CounterId::kMessagesSent)] =
        sent;
    return f;
  };
  std::vector<FlightFrame> a = {frame(0, 1), frame(10, 4)};
  const std::vector<FlightFrame> b = {frame(5, 2), frame(10, 6)};
  trace::merge_timelines(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].t_us, 0);
  EXPECT_EQ(a[1].t_us, 5);
  EXPECT_EQ(a[2].t_us, 10);
  EXPECT_EQ(a[2].counters[static_cast<std::size_t>(
                trace::CounterId::kMessagesSent)],
            10u);

  // Merging in the other order gives the same timeline.
  std::vector<FlightFrame> c = b;
  trace::merge_timelines(c, {frame(0, 1), frame(10, 4)});
  EXPECT_EQ(a, c);
}

// The acceptance bar for the grid harness: a recovery sweep collects the
// same histograms and the same timeline whatever the job count.
TEST(GridDeterminism, HistogramsAndTimelinesMatchAcrossJobCounts) {
  FacilitiesGuard guard;
  metrics::ScenarioConfig config;
  config.peer_count = 200;
  config.groups = 1;
  config.seed = 4242;
  config.recovery.enabled = true;
  config.recovery.loss_probability = 0.1;
  config.recovery.crash_fraction = 0.15;
  config.recovery.reliable_data = true;
  const std::vector<metrics::ScenarioConfig> points = {config};

  metrics::GridOptions sequential;
  sequential.jobs = 1;
  sequential.repetitions = 2;
  sequential.histograms = true;
  sequential.timeline = true;
  metrics::GridOptions parallel = sequential;
  parallel.jobs = 4;

  const auto a = metrics::run_scenario_grid(points, sequential);
  const auto b = metrics::run_scenario_grid(points, parallel);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_FALSE(a[0].histograms.empty());
  EXPECT_EQ(a[0].histograms, b[0].histograms);
  EXPECT_FALSE(a[0].timeline.empty());
  EXPECT_EQ(a[0].timeline, b[0].timeline);
  // The edge-delay and hop-count instruments both saw traffic.
  EXPECT_GT(a[0].histograms.of(HistogramId::kEdgeDelayUs).count, 0u);
  EXPECT_GT(a[0].histograms.of(HistogramId::kHopCount).count, 0u);
}

}  // namespace
