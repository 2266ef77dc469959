// IP unicast routing over the underlay: exact shortest paths by latency.
//
// The paper "used the routing weights generated by the GT-ITM package to
// simulate the IP unicast routing".  Distance queries are O(1) and path
// walks O(path length) — both needed at high volume by the link-stress and
// delay-penalty experiments — without an R×R table.
//
// The tables follow the underlay's hierarchy.  A *leaf* is a stub domain
// whose only link to the rest of the underlay is one gateway link onto a
// core router; every path that leaves the domain crosses that link, so
//
//   d(a, b) = up(a) + up(b) + core(attach(a), attach(b))
//
// for routers in different leaves, where up() is a router's distance to
// its gateway plus the gateway link and attach() is the core router the
// gateway hangs off.  Each leaf keeps an s×s table for its own pairs; all
// routers outside leaves form the core, which keeps one dense table.
// A Waxman underlay has no leaves: its core is every router.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace groupcast::net {

class IpRouting {
 public:
  /// Builds routing state for `topology`: one Dijkstra per core router
  /// over the core, one per leaf router inside its leaf.
  /// The topology must outlive this object.
  explicit IpRouting(const UnderlayTopology& topology);

  /// Latency (ms) of the shortest path between two routers.  Exactly
  /// symmetric: distance_ms(a, b) == distance_ms(b, a) bit for bit.
  double distance_ms(RouterId from, RouterId to) const;

  /// First hop on the shortest path from `from` towards `to`.
  /// Requires from != to.
  RouterId next_hop(RouterId from, RouterId to) const;

  /// Full router sequence from `from` to `to`, inclusive of both.
  std::vector<RouterId> path(RouterId from, RouterId to) const;

  /// Invokes `fn(link_id)` for each physical link on the shortest path.
  void for_each_path_link(RouterId from, RouterId to,
                          const std::function<void(LinkId)>& fn) const;

  /// Number of links on the shortest path (hop count).
  std::size_t hop_count(RouterId from, RouterId to) const;

  /// Routers outside every leaf (the dense table is core_routers()²).
  std::size_t core_routers() const { return core_n_; }
  std::size_t leaf_count() const { return leaves_.size(); }

  /// leaf_of() of a router outside every leaf.
  static constexpr std::uint32_t kNoLeaf =
      std::numeric_limits<std::uint32_t>::max();
  /// The leaf `router` sits in (an index below leaf_count()), or kNoLeaf
  /// for a core router.
  std::uint32_t leaf_of(RouterId router) const {
    return place_.at(router).leaf;
  }
  /// up() of the distance formula above: `router`'s distance to its
  /// leaf's gateway plus the gateway link; 0 for a core router.
  double up_ms(RouterId router) const { return place_.at(router).up_ms; }

  /// Bytes of retained routing state (capacity-based).
  std::size_t memory_bytes() const;

  const UnderlayTopology& topology() const { return *topology_; }

 private:
  /// Where a router sits in the hierarchy.
  struct Place {
    double up_ms = 0.0;          // to the gateway, plus the gateway link
    std::uint32_t leaf = kNoLeaf;
    std::uint32_t slot = 0;      // index in its leaf, or in the core
    std::uint32_t attach = 0;    // core index of its core router
  };

  struct Leaf {
    std::size_t offset = 0;      // start of its size² block in leaf_*_
    std::uint32_t size = 0;
    std::uint32_t gateway = 0;   // slot of the gateway router
    LinkId uplink = 0;           // gateway -> core router
  };

  /// Min-heap of (tentative distance, slot) for one Dijkstra.
  using Heap = std::vector<std::pair<double, std::uint32_t>>;

  /// One Dijkstra from slot `src` over the routers of `group` (a leaf
  /// index, or kNoLeaf for the core), whose slots index `members`; fills
  /// that source's row of distances and first links.
  void shortest_row(std::uint32_t group, const std::vector<RouterId>& members,
                    std::uint32_t src, double* dist, LinkId* next,
                    Heap& heap) const;

  /// Link out of `at` on the shortest path to `to`; requires at != to.
  LinkId next_link(RouterId at, RouterId to) const;

  const UnderlayTopology* topology_;
  std::size_t n_;
  std::size_t core_n_ = 0;
  std::vector<Place> place_;
  std::vector<Leaf> leaves_;
  // Per-leaf size² blocks, then the core_n_² core table.  Distances are
  // doubles symmetrized on fill: keeping each direction's own tie-broken
  // rounding would let distance_ms(a, b) and distance_ms(b, a) differ by
  // a few ulps, which perturbs Eq. 2 normalization.
  std::vector<double> leaf_dist_;
  std::vector<LinkId> leaf_next_;
  std::vector<double> core_dist_;
  std::vector<LinkId> core_next_;
};

}  // namespace groupcast::net
