// Tests for util::parallel_for: every index is visited exactly once, the
// first exception reaches the caller, and a nested call runs inline on
// the thread that makes it.  ChunkPipeline: a waiter sees its chunk's
// writes, with or without workers, a chunk's exception reaches it, and
// the chunks not yet claimed are skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::util {
namespace {

constexpr std::size_t kGrain = 8;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kGrain - 1, 10 * kGrain + 3}) {
    std::vector<std::atomic<int>> visits(n);
    parallel_for(
        n, kGrain, [&](std::size_t i) { visits[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, FirstExceptionReachesTheCaller) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW(parallel_for(
                     100, 3,
                     [](std::size_t i) {
                       if (i == 42) throw std::runtime_error("chunk failed");
                     },
                     workers),
                 std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(ParallelFor, NestedCallRunsInlineOnTheCallingWorker) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 4;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<char> outer_on_worker(kOuter, 0);
  std::vector<std::thread::id> inner(kOuter * kInner);
  parallel_for(
      kOuter, 1,
      [&](std::size_t i) {
        outer[i] = std::this_thread::get_id();
        outer_on_worker[i] = in_parallel_worker() ? 1 : 0;
        parallel_for(
            kInner, 1,
            [&](std::size_t j) {
              inner[i * kInner + j] = std::this_thread::get_id();
            },
            4);
      },
      4);
  // The caller runs chunks too, and is marked as a worker while it does.
  EXPECT_EQ(outer_on_worker, std::vector<char>(kOuter, 1));
  EXPECT_FALSE(in_parallel_worker());
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(inner[i * kInner + j], outer[i]) << i << "," << j;
    }
  }
}

TEST(ParallelFor, RejectsZeroGrain) {
  EXPECT_THROW(parallel_for(4, 0, [](std::size_t) {}), PreconditionError);
}

TEST(ParallelChunkPipeline, WaiterSeesEveryWriteOfItsChunk) {
  constexpr std::size_t n = 10 * kGrain + 3;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}}) {
    // Plain ints: wait_for must order the chunk's writes before the read.
    std::vector<int> value(n, -1);
    std::vector<std::atomic<int>> visits(n);
    ChunkPipeline pipeline(
        n, kGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            value[i] = static_cast<int>(i);
            visits[i].fetch_add(1);
          }
        },
        workers);
    for (std::size_t i = 0; i < n; ++i) {
      pipeline.wait_for(i);
      ASSERT_EQ(value[i], static_cast<int>(i)) << "workers=" << workers;
    }
    pipeline.finish();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ParallelChunkPipeline, ChunkExceptionReachesTheWaiter) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    ChunkPipeline pipeline(
        100, 3,
        [](std::size_t begin, std::size_t end) {
          if (begin <= 42 && 42 < end) throw std::runtime_error("failed");
        },
        workers);
    pipeline.wait_for(0);
    EXPECT_THROW(pipeline.wait_for(42), std::runtime_error)
        << "workers=" << workers;
    EXPECT_THROW(pipeline.finish(), std::runtime_error);
  }
}

TEST(ParallelChunkPipeline, ChunkExceptionSkipsTheUnclaimedChunks) {
  // No workers: finish() claims the chunks in order on this thread.
  std::size_t ran = 0;
  ChunkPipeline pipeline(
      100, 1,
      [&](std::size_t begin, std::size_t) {
        ++ran;
        if (begin == 10) throw std::runtime_error("failed");
      },
      0);
  EXPECT_THROW(pipeline.finish(), std::runtime_error);
  EXPECT_EQ(ran, 11u);
  EXPECT_THROW(pipeline.wait_for(50), std::runtime_error);
}

TEST(ParallelChunkPipeline, DestructorStopsWithoutFinishing) {
  std::atomic<std::size_t> ran{0};
  {
    ChunkPipeline pipeline(
        1000, 1, [&](std::size_t, std::size_t) { ran.fetch_add(1); }, 2);
    pipeline.wait_for(0);
  }
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LE(ran.load(), 1000u);
}

TEST(ParallelChunkPipeline, RejectsZeroGrain) {
  EXPECT_THROW(ChunkPipeline(4, 0, [](std::size_t, std::size_t) {}, 1),
               PreconditionError);
}

}  // namespace
}  // namespace groupcast::util
