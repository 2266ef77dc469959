// Deterministic pseudo-random number generation.
//
// All GroupCast simulations are seeded and reproducible.  We implement
// xoshiro256** (Blackman & Vigna) seeded through splitmix64 rather than
// relying on std::mt19937_64 solely for speed; the generator satisfies
// std's UniformRandomBitGenerator so it composes with <random> if needed.
#pragma once

#include <cstdint>
#include <vector>

namespace groupcast::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives the seed of an independent generator stream `stream_id` rooted
/// at `seed`: two dependent splitmix64 steps, so adjacent seeds and
/// adjacent stream ids — the experiment ladder seed, seed+1, ... is both —
/// land in uncorrelated states.  Deterministic: a (seed, stream) pair
/// always names the same stream, independent of which thread runs it or
/// how many other streams exist.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream_id);

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.  Unbiased (rejection).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Draws `k` distinct indices from [0, n) uniformly (k <= n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Spawns an independently-seeded child generator (for sub-experiments).
  Rng split();

  /// Generator for stream `stream_id` of `seed` (see stream_seed).
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(stream_seed(seed, stream_id));
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace groupcast::util
