// A population of peers attached to the IP underlay.
//
// Reproduces the paper's experimental setup (Section 4): "Peers are randomly
// attached to the stub domain routers", capacities follow Table 1, and
// network coordinates are assigned with GNP.
#pragma once

#include <memory>
#include <vector>

#include "coords/gnp.h"
#include "coords/vivaldi.h"
#include "net/routing.h"
#include "overlay/peer.h"

namespace groupcast::overlay {

/// How peers obtain their network coordinates.  The paper's evaluation
/// uses GNP [1]; Vivaldi [15] is the landmark-free alternative it cites.
enum class CoordinateSystem { kGnp, kVivaldi };

struct PopulationConfig {
  std::size_t peer_count = 1000;
  double access_latency_min_ms = 0.2;
  double access_latency_max_ms = 2.0;
  CoordinateSystem coordinates = CoordinateSystem::kGnp;
  coords::GnpOptions gnp;
  coords::VivaldiOptions vivaldi;
  /// Sampling rounds for the Vivaldi variant (each node measures one
  /// random peer per round).
  std::size_t vivaldi_rounds = 60;
  CapacityDistribution capacities{};
};

/// Immutable peer set: attachment points, capacities, true latencies and
/// estimated (coordinate) distances.
class PeerPopulation {
 public:
  PeerPopulation(const net::IpRouting& routing, const PopulationConfig& config,
                 util::Rng& rng);

  std::size_t size() const { return peers_.size(); }
  const PeerInfo& info(PeerId id) const { return peers_.at(id); }
  const std::vector<PeerInfo>& peers() const { return peers_; }

  /// True end-to-end latency (ms): access + router path + access.
  /// For a == b this is 0.
  double latency_ms(PeerId a, PeerId b) const;

  /// Latency as *estimated* from network coordinates — what the middleware
  /// actually uses in its utility computation (D(i, j) in the paper).
  double coord_distance_ms(PeerId a, PeerId b) const;

  /// Exact resource level r_i of a peer under the capacity distribution.
  double resource_level(PeerId id) const;

  /// Peers a node samples to estimate its own resource level: the
  /// bootstrap joins, the supernode leaves and every SSA forwarder use it.
  static constexpr std::size_t kResourceSample = 32;

  /// Empirical resource level measured against `sample_size` random peers —
  /// the decentralized estimate GroupCast actually performs (Section 3.1).
  double sampled_resource_level(PeerId id, std::size_t sample_size,
                                util::Rng& rng) const;

  const net::IpRouting& routing() const { return *routing_; }
  const CapacityDistribution& capacity_distribution() const {
    return capacities_;
  }

 private:
  const net::IpRouting* routing_;
  CapacityDistribution capacities_;
  std::vector<PeerInfo> peers_;
};

}  // namespace groupcast::overlay
