// Deterministic data-parallel loops over an index range.
//
// The world build (per-host GNP fits, per-source Dijkstra) and the
// experiment grid consist of independent work items whose results land in
// per-item slots.  parallel_for hands out fixed-size chunks of [0, n) from
// an atomic counter to a pool of worker threads.  Which thread runs which
// chunk changes from run to run, but every item writes only its own
// output, so the results never depend on the schedule.
//
// Nesting: a parallel_for called on a worker of another parallel_for runs
// inline on that worker, so a world built inside a parallel grid cell
// does not oversubscribe the cores.  in_parallel_worker() exposes the same
// guard to code that starts threads of its own (the sharded event kernel).
#pragma once

#include <cstddef>
#include <functional>

namespace groupcast::util {

/// Calls body(begin, end) for consecutive chunks [begin, end) of [0, n),
/// each at most `grain` long, on up to `workers` threads (0 = one per
/// hardware thread).  Runs every chunk inline on the calling thread when
/// there is only one chunk or one worker, or when called from a worker of
/// another parallel_for; otherwise the caller waits while the pool runs.
/// The first exception a chunk throws is rethrown here once every worker
/// has stopped; chunks not yet started are skipped.
void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t workers = 0);

/// True on a worker thread of a running parallel_for, where a nested
/// parallel_for runs inline.
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

}  // namespace groupcast::util
