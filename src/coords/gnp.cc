#include "coords/gnp.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "coords/nelder_mead.h"
#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::coords {

namespace {

/// Spring relaxation rounds of the joint landmark embedding.
constexpr std::size_t kLandmarkIterations = 2000;

/// Nelder–Mead iteration budget per host fit.
constexpr std::size_t kHostNmIterations = 300;

/// Relative-error objective GNP minimizes: sum of ((est-real)/real)^2.
double relative_error_sq(double estimated, double measured) {
  if (measured <= 0.0) return estimated * estimated;
  const double e = (estimated - measured) / measured;
  return e * e;
}

}  // namespace

GnpLandmarks::GnpLandmarks(std::size_t host_count, const LatencyOracle& oracle,
                           util::Rng& rng, const GnpOptions& options)
    : host_count_(host_count) {
  GC_REQUIRE(host_count >= 2);
  const std::size_t n_landmarks = std::min(options.landmarks, host_count);
  GC_REQUIRE(n_landmarks >= 2);

  // Landmark selection: uniform sample.  (GNP found random landmark picks
  // within a few percent of optimized picks.)
  landmarks_ = rng.sample_indices(host_count, n_landmarks);

  // Measured landmark-to-landmark latencies.
  std::vector<std::vector<double>> lm_dist(n_landmarks,
                                           std::vector<double>(n_landmarks));
  for (std::size_t i = 0; i < n_landmarks; ++i) {
    for (std::size_t j = i + 1; j < n_landmarks; ++j) {
      lm_dist[i][j] = lm_dist[j][i] = oracle(landmarks_[i], landmarks_[j]);
    }
  }

  // Phase 1: joint landmark embedding by spring relaxation.  Each landmark
  // starts at a random point; every round moves each landmark along the
  // summed error gradient of its springs.  This converges to the same local
  // minima the Simplex search finds for the joint objective and is far
  // cheaper in the joint (landmarks × dims) space.
  std::vector<Coord> lm(n_landmarks);
  for (auto& c : lm) {
    for (std::size_t d = 0; d < kDims; ++d) c[d] = rng.uniform(-200.0, 200.0);
  }
  for (std::size_t round = 0; round < kLandmarkIterations; ++round) {
    // Step size decays so the system settles.
    const double step =
        0.25 * (1.0 - static_cast<double>(round) /
                          static_cast<double>(kLandmarkIterations));
    for (std::size_t i = 0; i < n_landmarks; ++i) {
      Coord force;
      for (std::size_t j = 0; j < n_landmarks; ++j) {
        if (i == j) continue;
        const double est = lm[i].distance_to(lm[j]);
        const double target = lm_dist[i][j];
        if (est < 1e-9) {
          // Coincident points: push apart along a pseudo-random axis.
          Coord jitter;
          jitter[(i + j) % kDims] = 1.0;
          force += jitter * target;
          continue;
        }
        // Spring: positive error (too far) pulls together.
        const double err = target - est;
        Coord direction = lm[i] - lm[j];
        direction *= (1.0 / est);
        force += direction * err;
      }
      lm[i] += force * step;
    }
  }

  landmark_coords_ = std::move(lm);

  // Every host's probe row, taken here on the calling thread; a landmark's
  // row is never read.
  probes_.resize(host_count * n_landmarks);
  for (std::size_t host = 0; host < host_count; ++host) {
    if (std::find(landmarks_.begin(), landmarks_.end(), host) !=
        landmarks_.end()) {
      continue;
    }
    for (std::size_t j = 0; j < n_landmarks; ++j) {
      probes_[host * n_landmarks + j] = oracle(host, landmarks_[j]);
    }
  }
}

Coord GnpLandmarks::fit(std::size_t host) const {
  GC_REQUIRE(host < host_count_);
  const std::size_t n_landmarks = landmarks_.size();
  const auto& lm = landmark_coords_;
  for (std::size_t j = 0; j < n_landmarks; ++j) {
    if (landmarks_[j] == host) return lm[j];
  }
  using Point = std::array<double, kDims>;
  const double* probe = &probes_[host * n_landmarks];
  const auto objective = [&](const Point& x) {
    double total = 0.0;
    for (std::size_t j = 0; j < n_landmarks; ++j) {
      double acc = 0.0;
      for (std::size_t d = 0; d < kDims; ++d) {
        const double diff = x[d] - lm[j][d];
        acc += diff * diff;
      }
      total += relative_error_sq(std::sqrt(acc), probe[j]);
    }
    return total;
  };
  // Start at the closest landmark's coordinate — a good initial guess.
  std::size_t nearest = 0;
  for (std::size_t j = 1; j < n_landmarks; ++j) {
    if (probe[j] < probe[nearest]) nearest = j;
  }
  Point start{};
  for (std::size_t d = 0; d < kDims; ++d) start[d] = lm[nearest][d];
  NelderMeadOptions nm;
  nm.max_iterations = kHostNmIterations;
  nm.initial_step = 40.0;
  return Coord(nelder_mead(objective, start, nm).x);
}

std::vector<Coord> GnpLandmarks::fit_all() const {
  // Each fit writes only its own host's slot, so the parallel loop comes
  // out byte-identical to a serial one.
  std::vector<Coord> coords(host_count_);
  util::parallel_for(host_count_, kGnpFitGrain,
                     [&](std::size_t host) { coords[host] = fit(host); });
  return coords;
}

}  // namespace groupcast::coords
