// Shared fixtures for the GroupCast test suites: a small deterministic
// underlay + population, and hand-built graphs with known properties.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "net/routing.h"
#include "net/topology.h"
#include "overlay/population.h"
#include "util/rng.h"

namespace groupcast::testing {

/// FNV-1a, 64-bit, over raw object bytes.
class Fnv64 {
 public:
  template <typename T>
  void add(std::span<const T> items) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(items.data());
    for (std::size_t i = 0; i < items.size_bytes(); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(const T& item) {
    add(std::span<const T>(&item, 1));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// A compact transit-stub world (~2 transit domains) with `peers` peers.
/// Deterministic for a given seed.
struct SmallWorld {
  std::unique_ptr<net::UnderlayTopology> underlay;
  std::unique_ptr<net::IpRouting> routing;
  std::unique_ptr<overlay::PeerPopulation> population;
  util::Rng rng;

  explicit SmallWorld(std::size_t peers = 64, std::uint64_t seed = 1)
      : rng(seed) {
    net::TransitStubConfig config;
    config.transit_domains = 2;
    config.routers_per_transit_domain = 2;
    config.stub_domains_per_transit_router = 2;
    config.routers_per_stub_domain = 4;
    underlay = std::make_unique<net::UnderlayTopology>(
        net::generate_transit_stub(config, rng));
    routing = std::make_unique<net::IpRouting>(*underlay);
    overlay::PopulationConfig pop;
    pop.peer_count = peers;
    pop.gnp.landmarks = 6;
    population =
        std::make_unique<overlay::PeerPopulation>(*routing, pop, rng);
  }
};

/// A straight-line underlay: routers 0-1-2-...-(n-1) with unit latencies.
/// Distances are exactly |i - j| ms, which makes routing assertions exact.
inline net::UnderlayTopology line_topology(std::size_t routers,
                                           double hop_ms = 1.0) {
  net::UnderlayTopology::Builder builder;
  for (std::size_t i = 0; i < routers; ++i) {
    builder.add_router(i == 0 ? net::RouterKind::kTransit
                              : net::RouterKind::kStub,
                       0);
  }
  for (std::size_t i = 0; i + 1 < routers; ++i) {
    builder.add_link(static_cast<net::RouterId>(i),
                     static_cast<net::RouterId>(i + 1), hop_ms);
  }
  return std::move(builder).build();
}

}  // namespace groupcast::testing
