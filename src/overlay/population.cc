#include "overlay/population.h"

#include "util/require.h"

namespace groupcast::overlay {

namespace {

/// Last-mile latency (ms) between a peer and its stub router, drawn
/// uniformly per peer.
constexpr double kAccessLatencyMinMs = 0.2;
constexpr double kAccessLatencyMaxMs = 2.0;

}  // namespace

PeerPopulation::PeerPopulation(const net::IpRouting& routing,
                               const PopulationConfig& config, util::Rng& rng)
    : PeerPopulation(routing, config, rng, DeferFits{}) {
  const auto coords = gnp_->fit_all();
  for (PeerId id = 0; id < peers_.size(); ++id) peers_[id].coord = coords[id];
  end_fits();
}

PeerPopulation::PeerPopulation(const net::IpRouting& routing,
                               const PopulationConfig& config, util::Rng& rng,
                               DeferFits)
    : routing_(&routing) {
  GC_REQUIRE(config.peer_count >= 2);

  const auto stubs = routing.topology().stub_routers();
  GC_REQUIRE_MSG(!stubs.empty(), "underlay has no stub routers");

  peers_.resize(config.peer_count);
  for (PeerId id = 0; id < config.peer_count; ++id) {
    PeerInfo& p = peers_[id];
    p.id = id;
    p.router = stubs[rng.uniform_index(stubs.size())];
    p.access_latency_ms = rng.uniform(kAccessLatencyMinMs, kAccessLatencyMaxMs);
    p.capacity = capacities_.sample(rng);
  }

  // GNP's serial half over the true peer-pair latencies.
  const coords::LatencyOracle oracle = [this](std::size_t a, std::size_t b) {
    return latency_ms(static_cast<PeerId>(a), static_cast<PeerId>(b));
  };
  gnp_ = std::make_unique<const coords::GnpLandmarks>(config.peer_count,
                                                      oracle, rng, config.gnp);
}

void PeerPopulation::fit_coordinate(PeerId id) {
  GC_REQUIRE_MSG(gnp_ != nullptr, "the GNP fits have ended");
  peers_.at(id).coord = gnp_->fit(id);
}

double PeerPopulation::latency_ms(PeerId a, PeerId b) const {
  if (a == b) return 0.0;
  const PeerInfo& pa = peers_.at(a);
  const PeerInfo& pb = peers_.at(b);
  return pa.access_latency_ms +
         routing_->distance_ms(pa.router, pb.router) + pb.access_latency_ms;
}

std::size_t PeerPopulation::memory_bytes() const {
  return sizeof(*this) + peers_.capacity() * sizeof(PeerInfo);
}

double PeerPopulation::coord_distance_ms(PeerId a, PeerId b) const {
  return peers_.at(a).coord.distance_to(peers_.at(b).coord);
}

double PeerPopulation::resource_level(PeerId id) const {
  return capacities_.resource_level(peers_.at(id).capacity);
}

double PeerPopulation::sampled_resource_level(PeerId id,
                                              std::size_t sample_size,
                                              util::Rng& rng) const {
  GC_REQUIRE(sample_size > 0);
  const double own = peers_.at(id).capacity;
  std::size_t below = 0;
  std::size_t counted = 0;
  for (std::size_t s = 0; s < sample_size; ++s) {
    const auto other = static_cast<PeerId>(rng.uniform_index(peers_.size()));
    if (other == id) continue;
    ++counted;
    if (peers_[other].capacity < own) ++below;
  }
  if (counted == 0) return 0.5;
  return static_cast<double>(below) / static_cast<double>(counted);
}

}  // namespace groupcast::overlay
