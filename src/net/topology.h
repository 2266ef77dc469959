// Router-level IP underlay with a GT-ITM style transit-stub structure.
//
// The paper's evaluation uses the Transit-Stub model of the GT-ITM topology
// generator [34] for the physical network.  We reproduce the same three-level
// structure:
//
//   * a small core of transit domains, interconnected at random;
//   * each transit domain is a connected sub-graph of transit routers;
//   * each transit router hosts several stub domains (connected sub-graphs
//     of stub routers) attached through a gateway link.
//
// Link latencies are chosen so that router-pair distances span the same
// 0–400 ms range the paper's proximity plots show: long transit-transit
// links, medium transit-stub links, short intra-domain links.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace groupcast::net {

using RouterId = std::uint32_t;
using LinkId = std::uint32_t;

/// Role of a router in the transit-stub hierarchy.
enum class RouterKind : std::uint8_t { kTransit, kStub };

struct Router {
  RouterKind kind = RouterKind::kStub;
  /// Transit domain index for transit routers; stub domain index for stubs.
  std::uint32_t domain = 0;
};

/// One undirected physical link.
struct Link {
  RouterId a = 0;
  RouterId b = 0;
  double latency_ms = 0.0;
};

/// Sizes of the transit-stub generator.  The defaults produce a
/// ~600-router internetwork suitable for overlays of a few thousand peers;
/// scale_config_for_peers() widens the stub tier for larger overlays.
struct TransitStubConfig {
  std::uint32_t transit_domains = 4;
  std::uint32_t routers_per_transit_domain = 4;
  std::uint32_t stub_domains_per_transit_router = 3;
  std::uint32_t routers_per_stub_domain = 12;

  std::uint32_t total_routers() const {
    const std::uint32_t transit = transit_domains * routers_per_transit_domain;
    return transit + transit * stub_domains_per_transit_router *
                         routers_per_stub_domain;
  }
};

/// Uniform latency range (ms) of one transit-stub link class.
struct LatencyRange {
  double min_ms;
  double max_ms;
};
inline constexpr LatencyRange kTransitTransitLatency{30.0, 130.0};
inline constexpr LatencyRange kIntraTransitLatency{8.0, 25.0};
inline constexpr LatencyRange kTransitStubLatency{5.0, 20.0};
inline constexpr LatencyRange kIntraStubLatency{1.0, 6.0};

/// Immutable router-level topology.  Construct via `generate_transit_stub`
/// or assemble explicitly with `Builder` (used by tests).
class UnderlayTopology {
 public:
  class Builder;

  std::size_t router_count() const { return routers_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Router& router(RouterId id) const { return routers_.at(id); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// Links incident to `id` as (link id, neighbour id) pairs.
  const std::vector<std::pair<LinkId, RouterId>>& neighbors(
      RouterId id) const {
    return adjacency_.at(id);
  }

  /// All stub routers (the attachment points for peers).
  std::vector<RouterId> stub_routers() const;

  /// True if every router can reach every other (BFS).
  bool is_connected() const;

 private:
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<LinkId, RouterId>>> adjacency_;
};

/// Incremental construction with validation; `build()` checks connectivity.
class UnderlayTopology::Builder {
 public:
  RouterId add_router(RouterKind kind, std::uint32_t domain);

  /// Adds an undirected link; rejects self-loops, duplicate edges and
  /// non-positive latencies.
  LinkId add_link(RouterId a, RouterId b, double latency_ms);

  bool has_link(RouterId a, RouterId b) const;
  std::size_t router_count() const { return routers_.size(); }

  /// Finalizes; throws PreconditionError if the graph is not connected.
  UnderlayTopology build() &&;

 private:
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<LinkId, RouterId>>> adjacency_;
};

/// Generates a random transit-stub internetwork.
UnderlayTopology generate_transit_stub(const TransitStubConfig& config,
                                       util::Rng& rng);

/// Waxman random-graph generator — GT-ITM's other classic model, used
/// here as an ablation underlay to check that the paper's conclusions do
/// not hinge on the transit-stub structure.  Routers are placed uniformly
/// in a square of side kWaxmanPlaneSideMs (coordinates double as
/// propagation distance); an edge between routers at distance d exists
/// with probability  kWaxmanAlpha * exp(-d / (kWaxmanBeta * L)), where L is
/// the maximum possible distance.  Every router is flagged kStub (peers
/// may attach anywhere); disconnected graphs are stitched with
/// nearest-neighbour repair edges.
inline constexpr double kWaxmanAlpha = 0.15;
inline constexpr double kWaxmanBeta = 0.18;
inline constexpr double kWaxmanPlaneSideMs = 250.0;

struct WaxmanConfig {
  std::uint32_t routers = 200;
};

UnderlayTopology generate_waxman(const WaxmanConfig& config, util::Rng& rng);

/// Picks a TransitStubConfig sized so the underlay offers roughly one stub
/// router per `peers_per_router` peers for an overlay of `peer_count` peers.
TransitStubConfig scale_config_for_peers(std::size_t peer_count,
                                         std::size_t peers_per_router = 24);

}  // namespace groupcast::net
