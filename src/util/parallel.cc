#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/require.h"

namespace groupcast::util {

namespace {
/// Set on parallel_for worker threads: a nested call runs inline.
thread_local bool tl_parallel_worker = false;
}  // namespace

bool in_parallel_worker() { return tl_parallel_worker; }

void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t workers) {
  GC_REQUIRE(grain >= 1);
  if (n == 0) return;
  const std::size_t chunks = n / grain + (n % grain != 0 ? 1 : 0);
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, chunks);
  if (workers <= 1 || tl_parallel_worker) {
    for (std::size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(n, begin + grain));
    }
    return;
  }

  // The chunk ticket is the only shared mutable word; every chunk is
  // claimed by exactly one worker.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    tl_parallel_worker = true;
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      const std::size_t begin = chunk * grain;
      try {
        body(begin, std::min(n, begin + grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the remaining tickets so the pool winds down quickly.
        next.store(chunks, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(work);
  } catch (...) {
    // Thread creation failed: stop the started workers before unwinding.
    next.store(chunks, std::memory_order_relaxed);
    for (std::thread& worker : pool) worker.join();
    throw;
  }
  for (std::thread& worker : pool) worker.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace groupcast::util
