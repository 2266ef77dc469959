// The tracing facade: a per-thread Tracer over the per-node counters,
// histograms and flight recorder.
//
// Design constraints:
//  * zero-cost when disabled — emit() is a single null-pointer check, no
//    allocation, no virtual call; counters are one boolean branch.
//    Figure-sweep bench numbers must be unaffected.
//  * deterministic when enabled — events carry only simulated time and
//    ids, never wall-clock, so two runs of one seed produce byte-identical
//    JSONL traces.
//
// Thread model: each simulator instance is confined to one thread, and
// the tracer / counter / histogram / flight-recorder accessors all resolve
// to thread-local state, so independent scenario runs on a worker pool
// never share mutable instrumentation — plain state, no atomics,
// TSan-clean.  A sink installed on one thread only observes that thread's
// runs; the parallel experiment harness instead injects an isolated
// CounterRegistry per run (trace::ScopedCounterRegistry) and merges the
// snapshots.
//
// Usage:
//   trace::ScopedSink guard(std::make_unique<trace::JsonlFileSink>(path));
//   trace::counters().enable(peer_count);
//   ... run the scenario ...
//   trace::emit_counter_snapshot();   // export counters into the trace
#pragma once

#include <memory>

#include "trace/counters.h"
#include "trace/event.h"
#include "trace/flight_recorder.h"
#include "trace/histogram.h"
#include "trace/sink.h"

namespace groupcast::trace {

/// Routes events to the installed sink; inert while no sink is set.
class Tracer {
 public:
  bool enabled() const { return sink_ != nullptr; }

  /// Installs (or clears, with nullptr) the sink.  Not owned.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  void emit(const TraceEvent& event) {
    if (sink_ == nullptr) return;
    sink_->record(event);
  }
  void emit(std::int64_t t_us, EventKind kind, NodeId node = kNoNode,
            NodeId peer = kNoNode, std::uint64_t value = 0) {
    if (sink_ == nullptr) return;
    sink_->record(TraceEvent{t_us, kind, node, peer, value});
  }
  void flush() {
    if (sink_ != nullptr) sink_->flush();
  }

 private:
  TraceSink* sink_ = nullptr;
};

/// The calling thread's tracer — every instrumentation hook reports here.
/// (The per-thread counter registry accessor, trace::counters(), lives in
/// counters.h together with its ScopedCounterRegistry injection guard.)
Tracer& tracer();

/// RAII installer: owns a sink, points the calling thread's tracer at it
/// for the guard's lifetime, flushes and detaches on destruction.
class ScopedSink {
 public:
  explicit ScopedSink(std::unique_ptr<TraceSink> sink)
      : sink_(std::move(sink)) {
    tracer().set_sink(sink_.get());
  }
  ~ScopedSink() {
    tracer().flush();
    tracer().set_sink(nullptr);
  }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

  TraceSink* get() const { return sink_.get(); }

 private:
  std::unique_ptr<TraceSink> sink_;
};

/// Exports the current counter values into the trace as kCounterSnapshot
/// events (one per non-zero node/counter pair, then one totals row with
/// node == kNoNode), stamped at `t_us`.  No-op unless both the tracer and
/// the counter registry are enabled.
void emit_counter_snapshot(std::int64_t t_us = 0);

/// Exports the current histograms into the trace as kHistogramBin events
/// (one per non-zero bin, then count/sum/min/max summary slots), stamped
/// at `t_us`.  No-op unless both the tracer and the histogram registry
/// are enabled.
void emit_histogram_snapshot(std::int64_t t_us = 0);

/// Exports the flight recorder's frames into the trace as kTimelineFrame
/// events — one event per non-zero series per frame, stamped with the
/// frame's own capture time.  No-op unless both the tracer and the flight
/// recorder are enabled.
void emit_timeline();

}  // namespace groupcast::trace
