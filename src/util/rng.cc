#include "util/rng.h"

#include "util/require.h"

namespace groupcast::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream_id) {
  // First step diffuses the seed, the xor folds the stream id into the
  // diffused state, the second step diffuses the combination — so
  // (1, 0) / (1, 1) / (2, 0) all land far apart.
  std::uint64_t state = seed;
  const std::uint64_t mixed = splitmix64(state);
  state = mixed ^ (stream_id + 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state would be a fixed point; splitmix64 cannot produce four
  // consecutive zeros, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GC_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  GC_REQUIRE(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  GC_REQUIRE(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  GC_REQUIRE(k <= n);
  // Floyd's algorithm would avoid the O(n) init but a partial Fisher–Yates
  // is simpler and the candidate lists involved are small.
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    using std::swap;
    swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

Rng Rng::split() { return Rng((*this)()); }

}  // namespace groupcast::util
