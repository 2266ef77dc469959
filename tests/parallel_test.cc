// Tests for util::parallel_for: every index is visited exactly once, the
// first exception reaches the caller, and a nested call runs inline on
// the worker that makes it.
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
  std::vector<std::thread::id> inner(kOuter * kInner);
  parallel_for(
      kOuter, 1,
      [&](std::size_t i) {
        outer[i] = std::this_thread::get_id();
        parallel_for(
            kInner, 1,
            [&](std::size_t j) {
              inner[i * kInner + j] = std::this_thread::get_id();
            },
            4);
      },
      4);
  for (std::size_t i = 0; i < kOuter; ++i) {
    EXPECT_NE(outer[i], std::this_thread::get_id());
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(inner[i * kInner + j], outer[i]) << i << "," << j;
    }
  }
}

TEST(ParallelFor, RejectsZeroGrain) {
  EXPECT_THROW(parallel_for(4, 0, [](std::size_t) {}), PreconditionError);
}

}  // namespace
}  // namespace groupcast::util
