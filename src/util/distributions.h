// Workload distributions used throughout the evaluation: Zipf capacities
// (Section 3.1 synthetic study) and a generic categorical sampler
// (Table 1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace groupcast::util {

/// Zipf distribution over ranks {1, .., n}: P(k) ∝ k^(-s).
///
/// Sampling is done by inverse transform over the precomputed CDF, O(log n)
/// per draw.  The paper's Section 3.1 study draws peer capacities from a
/// Zipf with parameter 2.0.
class ZipfDistribution {
 public:
  /// @param n number of ranks (>= 1)
  /// @param s skew exponent (> 0)
  ZipfDistribution(std::size_t n, double s);

  /// Draws a rank in {1, .., n}; rank 1 is the most probable.
  std::size_t sample(Rng& rng) const;

  /// Probability of a given rank (1-based).
  double pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }
  double exponent() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;
};

/// Categorical distribution: sample index i with probability weight[i]/Σw.
class Categorical {
 public:
  explicit Categorical(std::vector<double> weights);

  std::size_t sample(Rng& rng) const;
  double probability(std::size_t index) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;       // normalized cumulative weights
  std::vector<double> weights_;   // normalized weights
};

}  // namespace groupcast::util
