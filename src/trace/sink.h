// Trace sinks: where recorded events go.
//
// The tracer (trace.h) forwards events to exactly one TraceSink.  Two
// implementations cover the evaluation needs:
//
//  * RingBufferSink — fixed-capacity in-memory ring; the cheapest way to
//    keep "the last N things that happened" around for tests and for
//    post-mortem inspection after an assertion failure.
//  * JsonlFileSink  — one JSON object per line, append-only.  The format
//    is deterministic (fixed key order, integers and enumerator names), so
//    two runs of the same seed produce byte-identical files;
//    tools/trace_report consumes it.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "trace/event.h"

namespace groupcast::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Records one event.  Must not throw on the hot path.
  virtual void record(const TraceEvent& event) = 0;
  /// Pushes buffered state to its destination (no-op for memory sinks).
  virtual void flush() {}
};

/// Discards everything; useful to measure tracing overhead in isolation.
class NullSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override {}
};

/// Keeps the most recent `capacity` events in memory.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void record(const TraceEvent& event) override;

  /// Events still held, oldest first.
  std::vector<TraceEvent> events() const;

  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (>= events().size()).
  std::size_t recorded() const { return recorded_; }
  /// Events lost to wraparound.
  std::size_t dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  void clear();

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> buffer_;
  std::size_t next_ = 0;      // slot the next event lands in
  std::size_t recorded_ = 0;
};

/// Serializes one event as a single JSONL line (no trailing newline).
/// Fixed key order: {"t_us":..,"kind":"..","node":..,"peer":..,"value":..}
/// `node`/`peer` are emitted as -1 when they are kNoPeer.  The field that
/// carries an id holds the id's name as a string: the Phase `value` of
/// phase_begin, the DropReason `value` of message_dropped, the CounterId
/// `peer` of counter_snapshot, the HistogramId `node` of histogram_bin and
/// the counter or histogram `peer` of timeline_frame.
std::string to_jsonl(const TraceEvent& event);

/// Parses a line produced by to_jsonl (tolerant of key order and extra
/// whitespace).  Returns nullopt on malformed input, an unknown kind or an
/// unknown id name.
std::optional<TraceEvent> parse_jsonl(const std::string& line);

/// Appends events to a JSONL file, one line each.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens (truncates) `path`; throws PreconditionError if it cannot.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void record(const TraceEvent& event) override;
  void flush() override;

  const std::string& path() const { return path_; }
  std::size_t recorded() const { return recorded_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t recorded_ = 0;
};

/// Reads every parseable event of a JSONL trace file, in file order.
/// Returns nullopt if the file cannot be opened; malformed lines are
/// skipped and counted in `*malformed` when provided.
std::optional<std::vector<TraceEvent>> read_jsonl_file(
    const std::string& path, std::size_t* malformed = nullptr);

}  // namespace groupcast::trace
