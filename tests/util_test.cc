// Unit tests for util: RNG determinism and statistics, distributions,
// the ring buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/distributions.h"
#include "util/flat_set.h"
#include "util/require.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace groupcast::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceProbabilityApproximate) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(31);
  const auto picks = rng.sample_indices(50, 20);
  ASSERT_EQ(picks.size(), 20u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto p : picks) EXPECT_LT(p, 50u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(37);
  const auto picks = rng.sample_indices(8, 8);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_indices(3, 4), PreconditionError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(43);
  Rng child = a.split();
  // The child stream should not replay the parent stream.
  Rng b(43);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamSeedIsDeterministicAndSeparating) {
  EXPECT_EQ(stream_seed(7, 3), stream_seed(7, 3));
  // The harness ladders seeds (seed, seed+1, ...) while the middleware
  // draws stream 0 of each; none of the nearby (seed, stream) pairs may
  // collide, or a ladder step would replay another deployment's stream.
  EXPECT_NE(stream_seed(1, 0), stream_seed(1, 1));
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));
  EXPECT_NE(stream_seed(1, 1), stream_seed(2, 0));
  EXPECT_NE(stream_seed(2, 1), stream_seed(1, 2));
}

TEST(Rng, ForStreamMatchesStreamSeed) {
  Rng direct(stream_seed(99, 4));
  Rng streamed = Rng::for_stream(99, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(direct(), streamed());
}

TEST(Rng, StreamsOfOneSeedDiverge) {
  Rng a = Rng::for_stream(42, 0);
  Rng b = Rng::for_stream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(100, 2.0);
  double total = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankOneMostProbable) {
  ZipfDistribution zipf(50, 1.5);
  for (std::size_t k = 2; k <= 50; ++k) {
    EXPECT_GT(zipf.pmf(1), zipf.pmf(k));
  }
}

TEST(Zipf, EmpiricalMatchesPmf) {
  ZipfDistribution zipf(10, 2.0);
  Rng rng(47);
  std::vector<int> counts(11, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01)
        << "rank " << k;
  }
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfDistribution(0, 2.0), PreconditionError);
  EXPECT_THROW(ZipfDistribution(10, 0.0), PreconditionError);
}

TEST(Categorical, NormalizesWeights) {
  Categorical c({2.0, 6.0, 2.0});
  EXPECT_NEAR(c.probability(0), 0.2, 1e-12);
  EXPECT_NEAR(c.probability(1), 0.6, 1e-12);
  EXPECT_NEAR(c.probability(2), 0.2, 1e-12);
}

TEST(Categorical, SamplingMatchesWeights) {
  Categorical c({1.0, 3.0});
  Rng rng(53);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += c.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Categorical, RejectsInvalidWeights) {
  EXPECT_THROW(Categorical({}), PreconditionError);
  EXPECT_THROW(Categorical({-1.0, 2.0}), PreconditionError);
  EXPECT_THROW(Categorical({0.0, 0.0}), PreconditionError);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Summary, EmptyGuards) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), PreconditionError);
  EXPECT_THROW(s.percentile(0.5), PreconditionError);
}

TEST(FrequencyCount, ItemsSortedAndTotals) {
  FrequencyCount f;
  f.add(3);
  f.add(1, 2);
  f.add(3);
  const auto items = f.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(items[1], (std::pair<std::size_t, std::size_t>{3, 2}));
  EXPECT_EQ(f.total(), 4u);
}

TEST(FrequencyCount, LogLogSlopeOfPerfectPowerLaw) {
  // count(d) = 1024 * d^-2 -> slope -2 exactly in log-log space (all the
  // counts are exact integers for d a power of two).
  FrequencyCount f;
  for (std::size_t d = 1; d <= 16; d *= 2) {
    f.add(d, 1024 / (d * d));
  }
  EXPECT_NEAR(f.log_log_slope(), -2.0, 1e-9);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4}, y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Pearson, DegenerateSeriesGiveZero) {
  std::vector<double> x{1, 1, 1}, y{1, 2, 3};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Require, MacrosThrowTypedErrors) {
  EXPECT_THROW(GC_REQUIRE(false), PreconditionError);
  EXPECT_THROW(GC_ENSURE(false), InvariantError);
  EXPECT_NO_THROW(GC_REQUIRE(true));
  EXPECT_NO_THROW(GC_ENSURE(true));
}

TEST(RingBuffer, AllocatesNothingBeforeTheFirstPush) {
  RingBuffer<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  ring.push_back(7);
  EXPECT_GT(ring.capacity(), 0u);
  EXPECT_EQ(ring.front(), 7);
}

TEST(RingBuffer, PushPopAcrossWrapAroundKeepsFifoOrder) {
  RingBuffer<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  const std::size_t capacity = ring.capacity();
  // Steady push-one-pop-one walks the head around the array several
  // times without growing it.
  int next_in = 4;
  for (int expected = 0; expected < 20; ++expected) {
    ASSERT_EQ(ring.front(), expected);
    ring.pop_front();
    ring.push_back(next_in++);
    ASSERT_EQ(ring.size(), 4u);
  }
  EXPECT_EQ(ring.capacity(), capacity);
  // Growing while wrapped keeps the order.
  for (int i = 0; i < 9; ++i) ring.push_back(next_in++);
  EXPECT_GT(ring.capacity(), capacity);
  for (int expected = 20; expected < next_in; ++expected) {
    ASSERT_EQ(ring.front(), expected);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, IndexCountsFromTheFrontAfterAWrap) {
  RingBuffer<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // wraps into the slots the pops freed
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
  }
  ring[1] = 30;
  const auto& view = ring;
  EXPECT_EQ(view[1], 30);
}

TEST(RingBuffer, ClearEmptiesAndKeepsTheAllocation) {
  RingBuffer<int> ring;
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  ring.pop_front();
  const std::size_t capacity = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);
  ring.push_back(9);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.front(), 9);
  EXPECT_THROW(RingBuffer<int>{}.pop_front(), PreconditionError);
}

TEST(RingBuffer, CopiesAreIndependentAndMovesLeaveAnEmptySource) {
  RingBuffer<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(i);
  ring.pop_front();  // head off zero, so copies must respect it
  RingBuffer<int> copy = ring;
  copy.push_back(99);
  EXPECT_EQ(ring.size(), 4u);
  ASSERT_EQ(copy.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(copy[i], ring[i]);
  EXPECT_EQ(copy[4], 99);

  RingBuffer<int> moved = std::move(ring);
  ASSERT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved.front(), 1);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_back(5);  // a moved-from buffer is usable again
  EXPECT_EQ(ring.front(), 5);

  copy = std::move(moved);
  ASSERT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy[3], 4);
  EXPECT_TRUE(moved.empty());
}


// ------------------------------------------------------------ dedup sets

/// Feeds `keys` to `set` and to an unordered_set oracle, checking every
/// insert's result and, after each insert, membership of the key, its
/// neighbours and a probe `window` keys around it.
template <typename Set>
void expect_matches_oracle(const std::vector<std::uint64_t>& keys) {
  Set set;
  std::unordered_set<std::uint64_t> oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t key = keys[i];
    ASSERT_EQ(set.insert(key), oracle.insert(key).second)
        << "insert #" << i << " key " << key;
    for (const std::uint64_t probe :
         {key, key - 1, key + 1, key + 63, key + 64, key - 64, key ^ 1}) {
      ASSERT_EQ(set.contains(probe), oracle.count(probe) != 0)
          << "after insert #" << i << " probe " << probe;
    }
  }
  for (const std::uint64_t key : oracle) ASSERT_TRUE(set.contains(key));
}

/// The node's payload key: origin in the high bits, id in the low bits.
std::uint64_t payload_key(std::uint64_t origin, std::uint64_t id) {
  return origin << 40 ^ id;
}

std::uint64_t chunk_key(std::uint64_t origin, std::uint64_t stream,
                        std::uint64_t chunk) {
  return payload_key(origin, std::uint64_t{1} << 63 | stream << 32 | chunk);
}

/// Sequence numbers 0..count-1 as a lossy, reordering link delivers them:
/// some dropped, some repeated, some swapped with a near neighbour.
std::vector<std::uint64_t> jittered_sequence(Rng& rng, std::uint64_t first,
                                             std::size_t count) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.chance(0.05)) continue;  // a gap
    out.push_back(first + i);
    if (rng.chance(0.05)) out.push_back(first + i);  // an immediate dup
  }
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (rng.chance(0.1)) {
      const std::size_t j =
          std::min(out.size() - 1, i + 1 + rng.uniform_index(70));
      std::swap(out[i], out[j]);  // some jumps land past the 64-bit window
    }
  }
  // Late repeats: copies that arrive long after the original.
  for (std::size_t i = 0; i < count / 10; ++i) {
    out.push_back(first + rng.uniform_index(count));
  }
  return out;
}

TEST(FlatSet64, MatchesAnUnorderedSetOnRandomKeys) {
  Rng rng(17);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    // Small keys repeat often; full-width keys exercise every bit.
    keys.push_back(rng.chance(0.5) ? rng.uniform_index(500) : rng());
  }
  keys.push_back(0);
  keys.push_back(0);
  expect_matches_oracle<FlatSet64>(keys);
}

TEST(FlatSet64, StartsAtFourSlotsAndGrowsPastThree) {
  FlatSet64 set;
  EXPECT_EQ(set.memory_bytes(), 0u);
  for (std::uint64_t key = 1; key <= 3; ++key) EXPECT_TRUE(set.insert(key));
  EXPECT_EQ(set.memory_bytes(), 4 * sizeof(std::uint64_t));
  EXPECT_TRUE(set.insert(4));
  EXPECT_EQ(set.memory_bytes(), 8 * sizeof(std::uint64_t));
  EXPECT_EQ(sizeof(FlatSet64), 16u);
}

TEST(FlatSet64, EraseMatchesAnUnorderedSet) {
  // Backward-shift deletion must keep every other key reachable through
  // long probe runs, so the keys crowd a small table.
  Rng rng(23);
  FlatSet64 set;
  std::unordered_set<std::uint64_t> oracle;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.uniform_index(300);
    if (rng.chance(0.4)) {
      ASSERT_EQ(set.erase(key), oracle.erase(key) != 0) << "erase " << key;
    } else {
      ASSERT_EQ(set.insert(key), oracle.insert(key).second) << "insert " << key;
    }
    ASSERT_EQ(set.size(), oracle.size());
  }
  for (std::uint64_t key = 0; key < 300; ++key) {
    ASSERT_EQ(set.contains(key), oracle.count(key) != 0) << key;
  }
}

TEST(WindowSet64, MatchesAnUnorderedSetOnInterleavedChunkStreams) {
  Rng rng(29);
  std::vector<std::vector<std::uint64_t>> streams;
  for (const std::uint64_t origin : {0u, 3u, 700u, (1u << 23) + 5}) {
    for (const std::uint64_t stream : {0u, 1u, 2u}) {
      std::vector<std::uint64_t> keys;
      for (const auto chunk : jittered_sequence(rng, 0, 400)) {
        keys.push_back(chunk_key(origin, stream, chunk));
      }
      streams.push_back(std::move(keys));
    }
  }
  // Interleave the streams at random, each keeping its own order.
  std::vector<std::size_t> next(streams.size(), 0);
  std::vector<std::uint64_t> keys;
  for (std::size_t left = streams.size(); left > 0;) {
    const std::size_t s = rng.uniform_index(streams.size());
    if (next[s] == streams[s].size()) continue;
    keys.push_back(streams[s][next[s]++]);
    if (next[s] == streams[s].size()) --left;
  }
  expect_matches_oracle<WindowSet64>(keys);
}

TEST(WindowSet64, MatchesAnUnorderedSetOnDataIdsWithGapsAndReorders) {
  Rng rng(31);
  for (const std::uint64_t first : {0u, 1u, 1'000'000u}) {
    std::vector<std::uint64_t> keys;
    for (const auto id : jittered_sequence(rng, first, 2000)) {
      keys.push_back(payload_key(9, id));
    }
    expect_matches_oracle<WindowSet64>(keys);
  }
}

TEST(WindowSet64, MatchesAnUnorderedSetFarPastTheWindowAndAtZero) {
  std::vector<std::uint64_t> keys{0,   0,   5,   4,   1,         2,
                                  3,   200, 199, 70,  5000,      4999,
                                  100, 0,   70,  1u << 31, (1u << 31) - 1,
                                  0xFFFFFFFFu, 0xFFFFFFFEu, 0xFFFFFFFFu,
                                  6,   5000};
  // A full run from the base up to the top of the sequence space.
  for (std::uint64_t id = 0xFFFFFF00u; id <= 0xFFFFFFFFu; ++id) {
    keys.push_back(id);
  }
  Rng rng(37);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.uniform_index(20000));
  expect_matches_oracle<WindowSet64>(keys);
}

TEST(WindowSet64, InOrderStreamCostsOneWindow) {
  WindowSet64 set;
  for (std::uint64_t chunk = 0; chunk < 10000; ++chunk) {
    ASSERT_TRUE(set.insert(chunk_key(4, 1, chunk)));
  }
  const std::size_t one_stream = set.memory_bytes();
  EXPECT_LE(one_stream, 32u);
  for (std::uint64_t chunk = 0; chunk < 10000; chunk += 2) {
    ASSERT_FALSE(set.insert(chunk_key(4, 1, chunk)));
  }
  EXPECT_EQ(set.memory_bytes(), one_stream);
}

}  // namespace
}  // namespace groupcast::util
