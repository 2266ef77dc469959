// Overlay graph: directed links, one neighbour list per peer.
//
// GroupCast's bootstrap creates *forwarding* (outgoing) edges chosen by the
// joiner and *back links* (incoming edges) accepted probabilistically by the
// target (Section 3.3).  Messages flow over the union of both directions —
// the links are long-lived transport connections, as in Gnutella — but the
// distinction matters for how the topology forms, so the graph keeps it.
// Edges are only ever added: the overlay is built once (bootstrap joins,
// PLOD or the supernode builder, then the middleware's connectivity
// repair) and is read-only afterwards.
//
// Storage: every peer's Nbr(p) lives in one shared PeerId arena as a
// 16-byte {offset, size, capacity, out} span, instead of a std::vector
// (24-byte header + its own heap block).  The first `out` entries are p's
// out-links in insertion order; after them come the in-links that are not
// also out-links, in arrival order.  A link present in both directions is
// stored once per endpoint, so the arena holds 2E − M entries for E
// directed edges of which M have their reverse.  Appends relocate a full
// span to the arena tail with doubled capacity (amortized O(1)); the
// garbage this leaves behind is at most half the arena, and a finished
// build drops it with compact().  See docs/PERFORMANCE.md, "Arena
// adjacency".
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "overlay/peer.h"
#include "util/require.h"

namespace groupcast::overlay {

class OverlayGraph {
 public:
  /// Read-only view of one peer's run in the arena.  add_edge may move
  /// the run, so a view must not be held across it.
  using NeighborSpan = std::span<const PeerId>;

  explicit OverlayGraph(std::size_t peer_count);

  std::size_t peer_count() const { return spans_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds a directed edge from -> to.  Returns false (no-op) if it already
  /// exists.  Self-edges are a precondition violation.
  bool add_edge(PeerId from, PeerId to);

  bool has_edge(PeerId from, PeerId to) const;

  /// True if a link exists in either direction.
  bool connected(PeerId a, PeerId b) const {
    const auto nbrs = neighbors(a);
    return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
  }

  /// All peers connected to `p` in either direction, each once: the
  /// out-links in insertion order, then the other in-links in arrival
  /// order.  This is Nbr(p) in the paper: the set messages can be
  /// exchanged with.
  NeighborSpan neighbors(PeerId p) const {
    GC_REQUIRE(p < spans_.size());
    const Span& span = spans_[p];
    return {arena_.data() + span.offset, span.size};
  }

  /// The out-links of `p`: the prefix of neighbors(p).
  NeighborSpan out_neighbors(PeerId p) const {
    return neighbors(p).first(spans_[p].out);
  }

  /// |Nbr(p)|.
  std::size_t degree(PeerId p) const { return neighbors(p).size(); }

  /// Retained bytes of the adjacency store (arena + spans), capacity-based
  /// and deterministic for a fixed edge history.
  std::size_t memory_bytes() const;

  /// Rebuilds the arena with zero garbage and per-span capacity == size,
  /// so a finished build drops its relocation slack.
  void compact();

  /// True if the union (undirected view) of the graph is connected over
  /// the peers that have at least one edge; isolated peers are reported via
  /// the second member.
  struct Connectivity {
    bool connected = false;
    std::size_t isolated_peers = 0;
    std::size_t largest_component = 0;
  };
  Connectivity connectivity() const;

  /// Mean shortest-path hop distance over sampled peer pairs (undirected
  /// view); used by the low-diameter claims.  Unreachable pairs excluded.
  double average_hop_distance(util::Rng& rng, std::size_t samples = 200) const;

  /// Watts–Strogatz clustering coefficient (undirected view), averaged over
  /// peers with degree >= 2.
  double clustering_coefficient() const;

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t out = 0;  // entries [0, out) are out-links
  };

  /// Makes room for one more entry in `span`, relocating it if full.
  void reserve_one(Span& span);

  std::vector<PeerId> arena_;  // every peer's span
  std::vector<Span> spans_;
  std::size_t edge_count_ = 0;
};

}  // namespace groupcast::overlay
