#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/require.h"

namespace groupcast::util {

namespace {
/// Set while a thread runs a chunk: a nested call runs inline.
thread_local bool tl_parallel_worker = false;

/// Marks the calling thread as running a chunk while in scope.
class WorkerScope {
 public:
  WorkerScope() : was_worker_(std::exchange(tl_parallel_worker, true)) {}
  ~WorkerScope() { tl_parallel_worker = was_worker_; }
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  bool was_worker_;
};

/// Chunks of at most `grain` items that cover [0, n).
std::size_t chunk_count(std::size_t n, std::size_t grain) {
  GC_REQUIRE(grain >= 1);
  return n / grain + (n % grain != 0 ? 1 : 0);
}
}  // namespace

bool in_parallel_worker() { return tl_parallel_worker; }

void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t workers) {
  const std::size_t chunks = chunk_count(n, grain);
  if (n == 0) return;
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
  // The caller is the last of the `workers` threads.
  ChunkPipeline(n, grain, body, workers - 1).finish();
}

ChunkPipeline::ChunkPipeline(
    std::size_t n, std::size_t grain,
    std::function<void(std::size_t, std::size_t)> body, std::size_t workers)
    : n_(n),
      grain_(grain),
      chunks_(chunk_count(n, grain)),
      body_(std::move(body)),
      done_(std::make_unique<std::atomic<int>[]>(chunks_)) {
  workers = std::min(workers, chunks_);
  pool_.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool_.emplace_back([this] {
        while (run_next()) {
        }
      });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ChunkPipeline::~ChunkPipeline() { stop(); }

void ChunkPipeline::stop() {
  next_.store(chunks_, std::memory_order_relaxed);
  for (std::thread& worker : pool_) worker.join();
  pool_.clear();
}

bool ChunkPipeline::run_next() {
  const std::size_t chunk = next_.fetch_add(1, std::memory_order_relaxed);
  if (chunk >= chunks_) return false;
  const std::size_t begin = chunk * grain_;
  try {
    const WorkerScope scope;
    body_(begin, std::min(n_, begin + grain_));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    // Skip the chunks not yet claimed; their waiters rethrow as well.
    const std::size_t unclaimed = next_.exchange(chunks_);
    done_[chunk].store(2, std::memory_order_release);
    done_[chunk].notify_all();
    for (std::size_t c = unclaimed; c < chunks_; ++c) {
      done_[c].store(2, std::memory_order_release);
      done_[c].notify_all();
    }
    return true;
  }
  done_[chunk].store(1, std::memory_order_release);
  done_[chunk].notify_all();
  return true;
}

void ChunkPipeline::wait_for(std::size_t i) {
  GC_REQUIRE(i < n_);
  const std::size_t chunk = i / grain_;
  std::atomic<int>& done = done_[chunk];
  while (done.load(std::memory_order_acquire) == 0) {
    // Help while the chunk is unclaimed; otherwise its worker is on it.
    if (next_.load(std::memory_order_relaxed) > chunk || !run_next()) {
      done.wait(0, std::memory_order_acquire);
    }
  }
  if (done.load(std::memory_order_relaxed) == 2) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    std::rethrow_exception(first_error_);
  }
}

void ChunkPipeline::finish() {
  while (run_next()) {
  }
  for (std::size_t begin = 0; begin < n_; begin += grain_) wait_for(begin);
  stop();
}

}  // namespace groupcast::util
