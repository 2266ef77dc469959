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

/// Embedding of `host_count` hosts.
class GnpEmbedding {
 public:
  /// Runs the full two-phase GNP procedure.
  /// @param host_count total number of hosts to embed (>= landmarks)
  /// @param oracle latency measurements; must be symmetric and non-negative
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
