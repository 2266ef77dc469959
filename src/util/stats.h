// Small statistics toolkit used by the metrics module and the benchmark
// harnesses: running summaries, percentiles, and logarithmic binning for
// the degree-distribution figures, plus the EWMA step of the node
// runtime's adaptive estimators.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace groupcast::util {

/// Accumulates a stream of doubles; O(1) add, O(n log n) percentile.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;
  /// p in [0,1]; nearest-rank percentile.  Requires non-empty.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  double sum_ = 0.0;
};

/// Exact frequency count of integer observations (e.g. node degrees).
class FrequencyCount {
 public:
  void add(std::size_t value, std::size_t times = 1);

  /// (value, count) pairs in ascending value order.
  std::vector<std::pair<std::size_t, std::size_t>> items() const;
  std::size_t total() const { return total_; }
  std::size_t distinct() const { return counts_.size(); }

  /// Least-squares slope of log10(count) vs log10(value), ignoring value 0.
  /// This is the visual slope of the paper's log-log degree plots
  /// (Figures 7 and 8); a power law shows up as a straight negative slope.
  double log_log_slope() const;

 private:
  std::map<std::size_t, std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Pearson correlation of two equal-length series; 0 if degenerate.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// EWMA step toward `sample` with the fixed alpha 1/8 (roughly an
/// 8-sample memory): the estimator of adaptive detection, shared by the
/// data plane's NACK cadence and the tree edges' heartbeat miss rate.
inline void ewma_update(double& estimate, double sample) {
  constexpr double kEwmaAlpha = 0.125;
  estimate += kEwmaAlpha * (sample - estimate);
}

}  // namespace groupcast::util
