// Peer identity and capacity model.
//
// A GroupCast peer is identified by the tuple
//   <IP address, port, coordinate, capacity>        (Section 3.3)
// Capacity is "the number of 64kbps connections the node is willing to
// support" and follows the measured distribution of Saroiu et al. [25]
// reproduced in the paper's Table 1.
#pragma once

#include <cstdint>
#include <vector>

#include "coords/coord.h"
#include "net/topology.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace groupcast::overlay {

using PeerId = std::uint32_t;
inline constexpr PeerId kNoPeer = static_cast<PeerId>(-1);

/// Static description of one peer.
struct PeerInfo {
  PeerId id = kNoPeer;
  net::RouterId router = 0;        // stub router the peer attaches to
  double access_latency_ms = 0.5;  // last-mile latency to that router
  coords::Coord coord;             // GNP network coordinate
  double capacity = 1.0;           // number of 64kbps flows supported
};

/// Table 1 of the paper: capacity level -> fraction of peers.
///
///   1x: 20%   10x: 45%   100x: 30%   1000x: 4.9%   10000x: 0.1%
class CapacityDistribution {
 public:
  /// Builds the paper's Table 1 distribution.
  CapacityDistribution();

  /// Draws a capacity value.
  double sample(util::Rng& rng) const;

  /// Exact resource level of a capacity value under this distribution:
  /// the fraction of peers expected to have *strictly less* capacity
  /// (Section 3.1's r_i).  E.g. Table 1 gives r(100x) = 0.65.
  double resource_level(double capacity) const;

  const std::vector<double>& levels() const { return levels_; }
  double probability_of_level(std::size_t index) const {
    return categorical_.probability(index);
  }
  std::size_t level_count() const { return levels_.size(); }

 private:
  std::vector<double> levels_;  // ascending capacity values
  util::Categorical categorical_;
};

}  // namespace groupcast::overlay
