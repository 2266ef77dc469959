// Flight recorder: a bounded ring of periodic sim-time snapshots.
//
// Each frame holds cumulative counter totals and histogram sample counts
// (not deltas) keyed by simulated time.  The node-runtime harness
// captures one frame per protocol epoch, summed over its shards'
// registries, turning the end-state delivery numbers into trajectories
// across the fault window.  The ring is bounded: once full,
// the oldest frame is dropped, so a long run keeps its most recent
// history — the flight-recorder idea.
//
// Frames are pure integers keyed by sim time, so time series from
// repeated runs merge order-independently (union of timestamps, summing
// rows on equal stamps).  That keeps --jobs=N byte-identical, same as
// counters and histograms.  Disabled by default; capture() is then one
// branch.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "trace/counters.h"
#include "trace/histogram.h"

namespace groupcast::trace {

/// One periodic snapshot: cumulative counter totals and histogram sample
/// counts at sim time `t_us`.
struct FlightFrame {
  std::int64_t t_us = 0;
  std::array<std::uint64_t, kCounterIds> counters{};
  std::array<std::uint64_t, kHistogramIds> samples{};

  /// Element-wise integer accumulation (timestamps must match).
  void merge(const FlightFrame& other);
  /// Adds `counters`' totals and `histograms`' sample counts.
  void add(const CounterRegistry& counters,
           const HistogramRegistry& histograms);

  friend bool operator==(const FlightFrame&, const FlightFrame&) = default;
};

/// Number of flight-recorder series exported per frame: every counter
/// followed by every histogram's sample count (see EventKind::
/// kTimelineFrame).
inline constexpr std::size_t kTimelineSeries = kCounterIds + kHistogramIds;

class FlightRecorder {
 public:
  bool enabled() const { return enabled_; }

  /// Turns recording on, clears previous frames, and bounds the ring to
  /// `capacity` frames (oldest dropped first).
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stops recording; frames are kept until enable() or reset().
  void disable() { enabled_ = false; }

  /// Appends `frame`; no-op (one branch) while disabled.  Re-capturing
  /// the newest stamp overwrites that frame.
  void capture(const FlightFrame& frame);

  std::size_t size() const { return frames_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Frames oldest-first.
  std::vector<FlightFrame> frames() const;
  void reset() { frames_.clear(); }

  /// Folds externally merged frames back into the ring (no-op while
  /// disabled); used by the grid harness to surface a reduced timeline
  /// through the ambient recorder.
  void merge(const std::vector<FlightFrame>& timeline);

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::deque<FlightFrame> frames_;
};

/// The calling thread's active flight recorder.  Defaults to a per-thread
/// instance; redirect with ScopedFlightRecorder.
FlightRecorder& flight_recorder();

/// RAII injection, same contract as ScopedCounterRegistry /
/// ScopedHistogramRegistry.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& recorder);
  ~ScopedFlightRecorder();
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* previous_;
};

/// Merges `other` into timeline `into`, keyed by t_us: union of
/// timestamps, element-wise sums where both have a frame.  Both inputs
/// must be sorted by t_us (captures are); the result stays sorted.
/// Integer sums keyed by time make this associative and
/// order-independent, so repetition timelines reduce deterministically.
void merge_timelines(std::vector<FlightFrame>& into,
                     const std::vector<FlightFrame>& other);

}  // namespace groupcast::trace
