// GNP (Global Network Positioning) coordinate assignment.
//
// The paper assigns each peer a network coordinate "using the algorithm
// of [1]" (GNP).  GNP works in two phases:
//   1. a small set of landmark hosts measure pairwise latencies and solve a
//      joint embedding minimizing relative error;
//   2. every other host measures its latency to the landmarks and solves
//      its own coordinate against the fixed landmark coordinates with the
//      Simplex Downhill (Nelder–Mead) method.
//
// The latency oracle abstracts "measuring": in the simulation it returns
// the underlay's true shortest-path latency, which is exactly the
// information real probes would gather.
#pragma once

#include <functional>
#include <vector>

#include "coords/coord.h"
#include "util/rng.h"

namespace groupcast::coords {

/// Returns the measured latency (ms) between host `a` and host `b`.
using LatencyOracle = std::function<double(std::size_t, std::size_t)>;

struct GnpOptions {
  std::size_t landmarks = 8;

  friend bool operator==(const GnpOptions&, const GnpOptions&) = default;
};

/// Hosts per chunk of a parallel fit loop: one fit takes tens of
/// microseconds, so a chunk amortizes the shared ticket without starving
/// the tail.
inline constexpr std::size_t kGnpFitGrain = 64;

/// The serial half of GNP: the landmark sample, the joint landmark
/// embedding (phase 1) and every host's landmark probes.  fit() is phase 2
/// for one host.  Every oracle call and RNG draw happens in the
/// constructor, on the calling thread, so the oracle need not be
/// thread-safe and the fits may run in any order on any thread.
class GnpLandmarks {
 public:
  /// @param host_count total number of hosts to embed (>= 2)
  /// @param oracle latency measurements; must be symmetric and non-negative
  GnpLandmarks(std::size_t host_count, const LatencyOracle& oracle,
               util::Rng& rng, const GnpOptions& options = {});

  /// The landmark hosts.
  const std::vector<std::size_t>& hosts() const { return landmarks_; }

  /// Phase 2 for one host: its coordinate solved against the landmark
  /// coordinates with Nelder–Mead (a landmark keeps its phase-1
  /// coordinate).  A pure function of the host's probe row, so distinct
  /// hosts may be fitted concurrently.
  Coord fit(std::size_t host) const;

  /// fit() of every host, kGnpFitGrain hosts a chunk on parallel_for; the
  /// one loop that fits a whole embedding.
  std::vector<Coord> fit_all() const;

 private:
  std::size_t host_count_;
  std::vector<std::size_t> landmarks_;
  std::vector<Coord> landmark_coords_;  // landmarks_[j]'s coordinate
  std::vector<double> probes_;  // row per host: latency to each landmark
};

/// Embedding of `host_count` hosts: GnpLandmarks, then its fit_all().
class GnpEmbedding {
 public:
  /// Runs the full two-phase GNP procedure; parameters as GnpLandmarks.
  GnpEmbedding(std::size_t host_count, const LatencyOracle& oracle,
               util::Rng& rng, const GnpOptions& options = {});

  const Coord& coordinate(std::size_t host) const { return coords_.at(host); }
  const std::vector<Coord>& coordinates() const { return coords_; }
  const std::vector<std::size_t>& landmark_hosts() const {
    return landmarks_;
  }

  /// Median relative error |est - real| / real over sampled host pairs —
  /// the standard GNP accuracy figure; useful for tests and diagnostics.
  double median_relative_error(const LatencyOracle& oracle, util::Rng& rng,
                               std::size_t sample_pairs = 2000) const;

 private:
  std::vector<Coord> coords_;
  std::vector<std::size_t> landmarks_;
};

}  // namespace groupcast::coords
