#include "coords/gnp.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "coords/nelder_mead.h"
#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::coords {

namespace {

/// Hosts per parallel_for chunk: one fit takes tens of microseconds, so a
/// chunk amortizes the shared ticket without starving the tail.
constexpr std::size_t kHostsPerChunk = 64;

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

GnpEmbedding::GnpEmbedding(std::size_t host_count, const LatencyOracle& oracle,
                           util::Rng& rng, const GnpOptions& options) {
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

  // Phase 2: every host (landmarks keep their phase-1 coordinates) solves
  // its coordinate against the landmarks with Nelder–Mead.
  coords_.resize(host_count);
  for (std::size_t i = 0; i < n_landmarks; ++i) {
    coords_[landmarks_[i]] = lm[i];
  }
  std::vector<char> is_landmark(host_count, 0);
  for (const auto l : landmarks_) is_landmark[l] = 1;

  // Every probe is taken here, on the calling thread, so the oracle need
  // not be thread-safe; the fits below only read the probe rows.
  std::vector<double> probes(host_count * n_landmarks);
  for (std::size_t host = 0; host < host_count; ++host) {
    if (is_landmark[host]) continue;
    for (std::size_t j = 0; j < n_landmarks; ++j) {
      probes[host * n_landmarks + j] = oracle(host, landmarks_[j]);
    }
  }

  // Each fit is a pure function of its probe row and the landmark
  // coordinates and writes only its own host's coordinate, so the fits
  // run in parallel and come out byte-identical to a serial loop.
  using Point = std::array<double, kDims>;
  NelderMeadOptions nm;
  nm.max_iterations = kHostNmIterations;
  nm.initial_step = 40.0;
  util::parallel_for(host_count, kHostsPerChunk, [&](std::size_t host) {
    if (is_landmark[host]) return;
    const double* probe = &probes[host * n_landmarks];
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
    coords_[host] = Coord(nelder_mead(objective, start, nm).x);
  });
}

double GnpEmbedding::median_relative_error(const LatencyOracle& oracle,
                                           util::Rng& rng,
                                           std::size_t sample_pairs) const {
  GC_REQUIRE(coords_.size() >= 2);
  std::vector<double> errors;
  errors.reserve(sample_pairs);
  for (std::size_t s = 0; s < sample_pairs; ++s) {
    const auto a = rng.uniform_index(coords_.size());
    auto b = rng.uniform_index(coords_.size());
    if (a == b) continue;
    const double real = oracle(a, b);
    if (real <= 0.0) continue;
    const double est = coords_[a].distance_to(coords_[b]);
    errors.push_back(std::abs(est - real) / real);
  }
  if (errors.empty()) return 0.0;
  std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                   errors.end());
  return errors[errors.size() / 2];
}

}  // namespace groupcast::coords
