// Directed overlay graph.
//
// GroupCast's bootstrap creates *forwarding* (outgoing) edges chosen by the
// joiner and *back links* (incoming edges) accepted probabilistically by the
// target (Section 3.3).  Messages flow over the union of both directions —
// the links are long-lived transport connections, as in Gnutella — but the
// distinction matters for how the topology forms, so the graph keeps it.
//
// Storage: both adjacency directions live in one shared PeerId arena with a
// 12-byte {offset, size, capacity} span per peer per direction, instead of
// a std::vector (24-byte header + its own heap block) each.  At 100k peers
// that is the difference between ~5 MB of vector headers plus 200k small
// allocations and one flat array — see docs/PERFORMANCE.md, "Sharded
// execution & memory budget".  Appends relocate a full span to the arena
// tail (amortized O(1)); the garbage this leaves behind is compacted away
// once it exceeds half the arena.  Per-span element order is exactly the
// order std::vector kept — append at the back, erase shifts left — so
// neighbour iteration, and everything seeded from it, is byte-identical.
#pragma once

#include <vector>

#include "overlay/peer.h"
#include "util/require.h"

namespace groupcast::overlay {

class OverlayGraph {
 public:
  /// Read-only view of one peer's adjacency run in the arena.  Invalidated
  /// by any edge mutation (like the vector iterators it replaced).
  class NeighborSpan {
   public:
    NeighborSpan(const PeerId* data, std::size_t size)
        : data_(data), size_(size) {}
    const PeerId* begin() const { return data_; }
    const PeerId* end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    PeerId operator[](std::size_t i) const { return data_[i]; }

   private:
    const PeerId* data_;
    std::size_t size_;
  };

  explicit OverlayGraph(std::size_t peer_count);

  std::size_t peer_count() const { return out_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds a directed edge from -> to.  Returns false (no-op) if it already
  /// exists.  Self-edges are a precondition violation.
  bool add_edge(PeerId from, PeerId to);

  /// Removes a directed edge; returns false if absent.
  bool remove_edge(PeerId from, PeerId to);

  /// Drops all edges incident to `peer` in either direction (peer failure).
  void isolate(PeerId peer);

  bool has_edge(PeerId from, PeerId to) const;

  /// True if a link exists in either direction.
  bool connected(PeerId a, PeerId b) const {
    return has_edge(a, b) || has_edge(b, a);
  }

  NeighborSpan out_neighbors(PeerId p) const {
    GC_REQUIRE(p < out_.size());
    return view(out_[p]);
  }
  NeighborSpan in_neighbors(PeerId p) const {
    GC_REQUIRE(p < in_.size());
    return view(in_[p]);
  }

  /// All peers connected to `p` in either direction, deduplicated.
  /// This is Nbr(p) in the paper: the set messages can be exchanged with.
  std::vector<PeerId> neighbors(PeerId p) const;

  /// |neighbors(p)| without materializing the vector.
  std::size_t degree(PeerId p) const;

  /// Retained bytes of the adjacency store (arena + spans), capacity-based
  /// and deterministic for a fixed edge history.
  std::size_t memory_bytes() const;

  /// Rebuilds the arena with zero garbage and per-span capacity == size.
  /// Called automatically when relocation garbage piles up; exposed for
  /// long-lived graphs that just finished a churn storm.
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
  };

  NeighborSpan view(const Span& span) const {
    return {arena_.data() + span.offset, span.size};
  }
  void append(Span& span, PeerId value);
  bool erase(Span& span, PeerId value);

  std::vector<PeerId> arena_;  // shared by both directions of every peer
  std::vector<Span> out_;
  std::vector<Span> in_;
  std::size_t edge_count_ = 0;
  std::size_t live_ = 0;  // arena slots inside some span's capacity
};

}  // namespace groupcast::overlay
