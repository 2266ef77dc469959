// Command-line glue shared by the bench/example binaries: recognises
// --trace_out=<path> and, when present, streams the run's protocol events
// to a JSONL file, appending a final counter snapshot when the guard goes
// out of scope.  Without the flag the guard is inert and the binary runs
// exactly as before (tracing stays disabled, zero hot-path cost).
//
// A binary that runs an experiment grid also takes --jobs=<n>, the worker
// count it hands to metrics::run_scenario_grid: 1 = sequential (default),
// 0 = one worker per hardware thread; one that runs the node runtime also
// takes --shards=<n>.  Results are byte-identical for every value — the
// grid gives each run an isolated RNG stream and counter registry.  A
// binary declares only the flags it reads (CliReads), so it refuses, with
// exit 2 and its usage, a flag it would ignore.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "trace/sink.h"
#include "trace/trace.h"
#include "util/flags.h"

namespace groupcast::trace {

/// The run-shape flags a binary reads, beyond --trace_out and --json_out.
struct CliReads {
  bool jobs = false;
  bool shards = false;
};

class CliTracing {
 public:
  /// Parses argv: --trace_out, --json_out, --help, and whichever of --jobs
  /// and --shards `reads` names.  Exits 2 with a usage message on any
  /// other flag, matching the repo's other CLIs.
  CliTracing(int argc, char** argv, CliReads reads = {}) {
    util::Flags flags;
    flags.declare("trace_out", "write a JSONL protocol trace to this path",
                  "");
    flags.declare("json_out",
                  "write a machine-readable BENCH report (JSON) to this path",
                  "");
    if (reads.jobs) {
      flags.declare(
          "jobs", "experiment-grid worker threads (0 = all hardware threads)",
          "1");
    }
    if (reads.shards) {
      flags.declare("shards",
                    "event-kernel shards per run, one worker thread each "
                    "from 2 up; 0 = 1 below 10000 peers, else one per "
                    "hardware thread (results are byte-identical at every "
                    "shard count)",
                    "0");
    }
    if (!flags.parse(argc, argv)) {
      std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                   flags.help(argv[0]).c_str());
      std::exit(2);
    }
    if (flags.help_requested()) {
      std::printf("%s", flags.help(argv[0]).c_str());
      std::exit(0);
    }
    if (reads.jobs) {
      jobs_ = static_cast<std::size_t>(
          std::max<std::int64_t>(0, flags.get_int("jobs")));
    }
    json_out_ = flags.get_string("json_out");
    const auto trace_out = flags.get_string("trace_out");
    // Per-event capture is thread-confined: worker threads have no sink,
    // so a --jobs>1 trace would silently drop their events.  Refuse the
    // combination instead (see docs/OBSERVABILITY.md, "Thread model").
    if (!trace_out.empty() && jobs_ != 1) {
      std::fprintf(stderr,
                   "%s: --trace_out requires --jobs=1 (worker threads have "
                   "no trace sink; their events would be dropped).\n"
                   "Counters, histograms and the flight recorder merge "
                   "deterministically at any job count — only the per-event "
                   "stream needs a single thread.\n",
                   argv[0]);
      std::exit(2);
    }
    const std::int64_t shards = reads.shards ? flags.get_int("shards") : 0;
    if (shards < 0) {
      std::fprintf(stderr, "%s: --shards must be >= 0\n", argv[0]);
      std::exit(2);
    }
    shards_ = static_cast<std::size_t>(shards);
    // Same thread-confinement rule as --jobs: a sharded run fires events
    // on several workers at once, so there is no single totally-ordered
    // event stream for the JSONL sink to record.  (Left to choose, a run
    // under the sink resolves to one shard.)
    if (!trace_out.empty() && shards_ > 1) {
      std::fprintf(stderr,
                   "%s: --trace_out requires --shards=1 (a sharded run has "
                   "no single totally-ordered event stream to trace).\n"
                   "Counters and histograms merge deterministically at any "
                   "shard count — only the per-event stream needs a single "
                   "wheel.\n",
                   argv[0]);
      std::exit(2);
    }
    open(trace_out);
  }

  /// Direct form for binaries that pre-process argv themselves
  /// (bench_micro strips --trace_out before google-benchmark parses the
  /// rest).  An empty path leaves tracing disabled.
  explicit CliTracing(const std::string& path) { open(path); }

  ~CliTracing() {
    if (sink_ == nullptr) return;
    emit_counter_snapshot();
    emit_histogram_snapshot();
    emit_timeline();
    counters().disable();
    histograms().disable();
    flight_recorder().disable();
    sink_.reset();  // flush + detach the global tracer
  }
  CliTracing(const CliTracing&) = delete;
  CliTracing& operator=(const CliTracing&) = delete;

  bool active() const { return sink_ != nullptr; }

  /// Worker threads requested via --jobs (1 when the flag was absent or
  /// the path constructor was used; 0 means "all hardware threads").
  std::size_t jobs() const { return jobs_; }

  /// Event-kernel shards requested via --shards (0, "let the runtime
  /// choose", when absent or when the path constructor was used).
  std::size_t shards() const { return shards_; }

  /// --json_out destination for the bench's machine-readable report
  /// (bench/json_report.h); empty when the flag was absent.
  const std::string& json_out() const { return json_out_; }

 private:
  void open(const std::string& path) {
    if (path.empty()) return;
    sink_ = std::make_unique<ScopedSink>(
        std::make_unique<JsonlFileSink>(path));
    counters().enable(0);
    histograms().enable();
    flight_recorder().enable();
  }

  std::unique_ptr<ScopedSink> sink_;
  std::size_t jobs_ = 1;
  std::size_t shards_ = 0;
  std::string json_out_;
};

}  // namespace groupcast::trace
