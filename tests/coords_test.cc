// Tests for network coordinates: Coord arithmetic, the Nelder–Mead
// minimizer (against analytic optima), GNP embedding accuracy on
// synthetic Euclidean data and on a transit-stub underlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "coords/coord.h"
#include "coords/gnp.h"
#include "coords/nelder_mead.h"
#include "test_helpers.h"
#include "util/stats.h"

namespace groupcast::coords {
namespace {

/// Median relative error |est - real| / real over sampled host pairs, the
/// standard GNP accuracy figure.
double median_relative_error(const std::vector<Coord>& coords,
                             const LatencyOracle& oracle, util::Rng& rng,
                             std::size_t sample_pairs = 2000) {
  std::vector<double> errors;
  errors.reserve(sample_pairs);
  for (std::size_t s = 0; s < sample_pairs; ++s) {
    const auto a = rng.uniform_index(coords.size());
    const auto b = rng.uniform_index(coords.size());
    if (a == b) continue;
    const double real = oracle(a, b);
    if (real <= 0.0) continue;
    errors.push_back(std::abs(coords[a].distance_to(coords[b]) - real) /
                     real);
  }
  if (errors.empty()) return 0.0;
  std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                   errors.end());
  return errors[errors.size() / 2];
}

TEST(Coord, DistanceAndNorm) {
  Coord a, b;
  a[0] = 3.0;
  b[1] = 4.0;
  EXPECT_DOUBLE_EQ(a.distance_to(b), 5.0);
  EXPECT_DOUBLE_EQ(a.distance_to(a), 0.0);
  EXPECT_DOUBLE_EQ((a + b).magnitude(), 5.0);
}

TEST(Coord, VectorArithmetic) {
  Coord a, b;
  a[0] = 1.0;
  a[2] = 2.0;
  b[0] = 3.0;
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[2], 2.0);
  const auto diff = a - b;
  EXPECT_DOUBLE_EQ(diff[0], -2.0);
  const auto scaled = a * 2.5;
  EXPECT_DOUBLE_EQ(scaled[2], 5.0);
}

TEST(Coord, DistanceIsSymmetricAndTriangular) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Coord a, b, c;
    for (std::size_t d = 0; d < kDims; ++d) {
      a[d] = rng.uniform(-100, 100);
      b[d] = rng.uniform(-100, 100);
      c[d] = rng.uniform(-100, 100);
    }
    EXPECT_DOUBLE_EQ(a.distance_to(b), b.distance_to(a));
    EXPECT_LE(a.distance_to(c), a.distance_to(b) + b.distance_to(c) + 1e-9);
  }
}

TEST(NelderMead, MinimizesQuadraticBowl) {
  const auto f = [](const std::array<double, 4>& x) {
    double total = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      total += (x[i] - static_cast<double>(i)) * (x[i] - static_cast<double>(i));
    }
    return total;
  };
  const auto result =
      nelder_mead(f, std::array<double, 4>{10.0, 10.0, 10.0, 10.0});
  EXPECT_LT(result.value, 1e-3);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.x[i], static_cast<double>(i), 0.05);
  }
}

TEST(NelderMead, HandlesAsymmetricValley) {
  // f(x, y) = (x-1)^2 + 100 (y - x)^2: a narrow diagonal valley.
  const auto f = [](const std::array<double, 2>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) +
           100.0 * (x[1] - x[0]) * (x[1] - x[0]);
  };
  NelderMeadOptions options;
  options.max_iterations = 2000;
  options.initial_step = 2.0;
  const auto result = nelder_mead<2>(f, {5.0, -5.0}, options);
  EXPECT_LT(result.value, 1e-2);
}

TEST(NelderMead, RespectsIterationBudget) {
  const auto f = [](const std::array<double, 1>& x) { return x[0] * x[0]; };
  NelderMeadOptions options;
  options.max_iterations = 5;
  const auto result = nelder_mead<1>(f, {100.0}, options);
  EXPECT_LE(result.iterations, 5u);
}

TEST(Gnp, RecoversSyntheticEuclideanDistances) {
  // Ground-truth points in the embedding space itself: GNP should recover
  // distances almost exactly (no triangle-inequality violations to absorb).
  util::Rng rng(17);
  std::vector<Coord> truth(60);
  for (auto& c : truth) {
    for (std::size_t d = 0; d < kDims; ++d) c[d] = rng.uniform(0, 300);
  }
  const LatencyOracle oracle = [&truth](std::size_t a, std::size_t b) {
    return truth[a].distance_to(truth[b]);
  };
  const auto coords = GnpLandmarks(truth.size(), oracle, rng).fit_all();
  util::Rng eval(18);
  EXPECT_LT(median_relative_error(coords, oracle, eval), 0.05);
}

TEST(Gnp, ReasonableErrorOnTransitStubLatencies) {
  testing::SmallWorld world(48, 19);
  const auto& population = *world.population;
  const LatencyOracle oracle = [&population](std::size_t a, std::size_t b) {
    return population.latency_ms(static_cast<overlay::PeerId>(a),
                                 static_cast<overlay::PeerId>(b));
  };
  util::Rng rng(20);
  const auto coords = GnpLandmarks(48, oracle, rng).fit_all();
  util::Rng eval(21);
  // Internet-style latencies are not perfectly Euclidean; GNP's published
  // median relative error is ~0.1-0.5.  Accept anything clearly informative.
  EXPECT_LT(median_relative_error(coords, oracle, eval), 0.6);
}

TEST(Gnp, LandmarkCountClampedToHosts) {
  util::Rng rng(23);
  const LatencyOracle oracle = [](std::size_t, std::size_t) { return 10.0; };
  GnpOptions options;
  options.landmarks = 50;
  const GnpLandmarks gnp(5, oracle, rng, options);
  EXPECT_EQ(gnp.hosts().size(), 5u);
}

TEST(Gnp, CoordinatesCorrelateWithTrueDistance) {
  testing::SmallWorld world(40, 29);
  const auto& population = *world.population;
  // PeerPopulation already embeds with GNP; check the correlation between
  // coordinate distance and true latency over all pairs.
  std::vector<double> est, real;
  for (overlay::PeerId a = 0; a < 40; ++a) {
    for (overlay::PeerId b = a + 1; b < 40; ++b) {
      est.push_back(population.coord_distance_ms(a, b));
      real.push_back(population.latency_ms(a, b));
    }
  }
  EXPECT_GT(util::pearson(est, real), 0.8);
}

}  // namespace
}  // namespace groupcast::coords
