// A population of peers attached to the IP underlay.
//
// Reproduces the paper's experimental setup (Section 4): "Peers are randomly
// attached to the stub domain routers", capacities follow Table 1, and
// network coordinates are assigned with GNP.
#pragma once

#include <memory>
#include <vector>

#include "coords/gnp.h"
#include "net/routing.h"
#include "overlay/peer.h"

namespace groupcast::overlay {

struct PopulationConfig {
  std::size_t peer_count = 1000;
  coords::GnpOptions gnp;

  friend bool operator==(const PopulationConfig&,
                         const PopulationConfig&) = default;
};

/// Immutable peer set: attachment points, Table 1 capacities, true
/// latencies and estimated (GNP coordinate) distances.
class PeerPopulation {
 public:
  /// Draws the peers and fits every GNP coordinate (in parallel).
  PeerPopulation(const net::IpRouting& routing, const PopulationConfig& config,
                 util::Rng& rng);

  /// Tag of the constructor that leaves the GNP host fits to the caller.
  struct DeferFits {};

  /// Makes every draw and probe the synchronous constructor makes, in the
  /// same order, but leaves each peer's coordinate unset until
  /// fit_coordinate(id) has run for it.  The synchronous constructor is
  /// this one followed by every fit and end_fits().
  PeerPopulation(const net::IpRouting& routing, const PopulationConfig& config,
                 util::Rng& rng, DeferFits);

  /// GNP phase 2 for one peer of a deferred-fit population.  Fits of
  /// distinct peers may run concurrently with each other and with reads of
  /// any other peer's fields; the peer's own coordinate must not be read
  /// until its fit has returned.
  void fit_coordinate(PeerId id);

  /// Frees the GNP probe rows; call once every coordinate is fitted.
  void end_fits() { gnp_.reset(); }

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

  /// Bytes of retained peer state (capacity-based): the per-peer records.
  /// The routing tables are the IpRouting's own (see its memory_bytes()).
  std::size_t memory_bytes() const;

 private:
  const net::IpRouting* routing_;
  CapacityDistribution capacities_;
  std::vector<PeerInfo> peers_;
  std::unique_ptr<const coords::GnpLandmarks> gnp_;  // set while fits pend
};

}  // namespace groupcast::overlay
