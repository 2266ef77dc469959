// Deterministic data-parallel loops over an index range.
//
// The world build (per-host GNP fits, per-source Dijkstra) and the
// experiment grid consist of independent work items whose results land in
// per-item slots.  ChunkPipeline hands out fixed-size chunks of [0, n),
// in index order, from an atomic ticket to a pool of threads.  Which
// thread runs which chunk changes from run to run, but every item writes
// only its own output, so the results never depend on the schedule.
// parallel_for runs such a pipeline with the caller as one of its
// threads; the overlay joins instead consume a pipeline's items in index
// order while its background threads produce them (the GNP fits).
//
// Nesting: a parallel_for called from inside a chunk runs inline on the
// thread running that chunk, so a world built inside a parallel grid cell
// does not oversubscribe the cores.  in_parallel_worker() exposes the same
// guard to code that starts threads of its own (the sharded event kernel,
// the world build's fits).
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace groupcast::util {

/// Calls body(begin, end) for consecutive chunks [begin, end) of [0, n),
/// each at most `grain` long, on up to `workers` threads (0 = one per
/// hardware thread), the calling thread included.  Runs every chunk
/// inline on the calling thread when there is only one chunk or one
/// worker, or when called from inside a chunk of another loop; otherwise
/// it is ChunkPipeline(n, grain, body, workers - 1).finish().  The first
/// exception a chunk throws is rethrown here once every thread has
/// stopped; chunks not yet claimed are skipped.
void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t workers = 0);

/// True while the calling thread runs a chunk of a parallel_for or a
/// ChunkPipeline, where a nested parallel_for runs inline.
bool in_parallel_worker();

/// Calls body(i) for every i in [0, n); see parallel_for_chunks.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body,
                  std::size_t workers = 0) {
  parallel_for_chunks(
      n, grain,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      workers);
}

/// Calls body(begin, end) for the chunks of [0, n), each at most `grain`
/// long, on `workers` background threads that start at construction and
/// claim chunks in index order.  wait_for(i) returns once the chunk
/// holding item i has run, and every write the chunk made is visible to
/// the caller from then on.  A caller whose chunk no worker has claimed
/// yet runs the next unclaimed chunks itself, so the pipeline also
/// finishes with zero workers.  Once a chunk throws, the chunks not yet
/// claimed are skipped.
class ChunkPipeline {
 public:
  ChunkPipeline(std::size_t n, std::size_t grain,
                std::function<void(std::size_t, std::size_t)> body,
                std::size_t workers);
  /// Skips the chunks not yet claimed and joins the workers.
  ~ChunkPipeline();
  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  /// Blocks until item i's chunk has run.  If that chunk threw or was
  /// skipped, rethrows the first exception any chunk threw.
  void wait_for(std::size_t i);

  /// Runs the unclaimed chunks on the caller, waits for every chunk, then
  /// joins the workers.
  void finish();

 private:
  /// Claims and runs the next chunk; false when none is left.
  bool run_next();
  void stop();

  std::size_t n_;
  std::size_t grain_;
  std::size_t chunks_;
  std::function<void(std::size_t, std::size_t)> body_;
  std::atomic<std::size_t> next_{0};
  /// done_[c] becomes 1 once chunk c has run, 2 if it threw or was
  /// skipped after another chunk threw.
  std::unique_ptr<std::atomic<int>[]> done_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::vector<std::thread> pool_;
};

}  // namespace groupcast::util
