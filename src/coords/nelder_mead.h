// Nelder–Mead downhill-simplex minimizer.
//
// GNP [1] computes each host's coordinate by minimizing the latency
// embedding error with the Simplex Downhill method; this is that method.
// It is a template over the objective and a fixed dimension D: vertices
// are std::array<double, D>, so a fit allocates nothing and the objective
// inlines.  Every floating-point operation runs in a fixed order (centroid
// sum then scale, affine steps as a + t·(b − a)), so a fit is a pure
// function of its inputs.  Tests exercise it on known analytic functions.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "util/require.h"

namespace groupcast::coords {

struct NelderMeadOptions {
  std::size_t max_iterations = 400;
  double initial_step = 50.0;   // simplex spread around the starting point
  double tolerance = 1e-6;      // stop when the simplex f-spread drops below
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
};

template <std::size_t D>
struct NelderMeadResult {
  std::array<double, D> x{};
  double value = 0.0;
  std::size_t iterations = 0;
};

/// Minimizes `f`, called as f(const std::array<double, D>&) -> double,
/// starting from `start`.
template <std::size_t D, typename F>
NelderMeadResult<D> nelder_mead(const F& f, const std::array<double, D>& start,
                                const NelderMeadOptions& options = {}) {
  static_assert(D >= 1, "nelder_mead needs at least one dimension");
  GC_REQUIRE(options.initial_step > 0.0);
  using Point = std::array<double, D>;
  const auto affine = [](const Point& origin, const Point& towards,
                         double t) {
    Point out{};
    for (std::size_t d = 0; d < D; ++d) {
      out[d] = origin[d] + t * (towards[d] - origin[d]);
    }
    return out;
  };

  // Initial simplex: the start point plus one vertex offset per axis.
  std::array<Point, D + 1> simplex{};
  simplex[0] = start;
  for (std::size_t d = 0; d < D; ++d) {
    simplex[d + 1] = start;
    simplex[d + 1][d] += options.initial_step;
  }
  std::array<double, D + 1> values{};
  for (std::size_t i = 0; i <= D; ++i) values[i] = f(simplex[i]);

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Identify best, worst, second-worst.
    std::size_t best = 0, worst = 0;
    for (std::size_t i = 1; i <= D; ++i) {
      if (values[i] < values[best]) best = i;
      if (values[i] > values[worst]) worst = i;
    }
    std::size_t second = best;
    for (std::size_t i = 0; i <= D; ++i) {
      if (i != worst && values[i] > values[second]) second = i;
    }

    if (std::abs(values[worst] - values[best]) < options.tolerance) break;

    // Centroid of every vertex but the worst: sum, then scale.
    Point center{};
    for (std::size_t i = 0; i <= D; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < D; ++d) center[d] += simplex[i][d];
    }
    const double k = 1.0 / static_cast<double>(D);
    for (auto& c : center) c *= k;

    const Point reflected =
        affine(center, simplex[worst], -options.reflection);
    const double reflected_value = f(reflected);

    if (reflected_value < values[best]) {
      const Point expanded = affine(center, simplex[worst],
                                    -options.reflection * options.expansion);
      const double expanded_value = f(expanded);
      if (expanded_value < reflected_value) {
        simplex[worst] = expanded;
        values[worst] = expanded_value;
      } else {
        simplex[worst] = reflected;
        values[worst] = reflected_value;
      }
    } else if (reflected_value < values[second]) {
      simplex[worst] = reflected;
      values[worst] = reflected_value;
    } else {
      const Point contracted =
          affine(center, simplex[worst], options.contraction);
      const double contracted_value = f(contracted);
      if (contracted_value < values[worst]) {
        simplex[worst] = contracted;
        values[worst] = contracted_value;
      } else {
        // Shrink the whole simplex towards the best vertex.
        for (std::size_t i = 0; i <= D; ++i) {
          if (i == best) continue;
          simplex[i] = affine(simplex[best], simplex[i], options.shrink);
          values[i] = f(simplex[i]);
        }
      }
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= D; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return {simplex[best], values[best], iter};
}

}  // namespace groupcast::coords
