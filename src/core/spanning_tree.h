// The group-communication spanning tree.
//
// A spanning tree T <V_Pt, E_Pt> is a connected acyclic sub-graph of the
// overlay connecting all group participants (Section 2).  GroupCast grows
// it from the reverse advertisement paths: when a subscriber joins, every
// link its advertisement travelled through becomes part of the tree, so
// the tree also contains non-subscriber *relay* peers.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "overlay/peer.h"

namespace groupcast::core {

class SpanningTree {
 public:
  /// Creates a tree rooted at the rendezvous point.
  explicit SpanningTree(overlay::PeerId root);

  overlay::PeerId root() const { return root_; }

  /// True if the peer is on the tree (relay or subscriber).
  bool contains(overlay::PeerId p) const { return parent_.contains(p); }

  /// Attaches `child` under `parent`, which must already be on the tree.
  /// No-op if child is already attached (its existing position is kept).
  void attach(overlay::PeerId child, overlay::PeerId parent);

  /// Marks a tree node as an actual subscriber (vs pure relay).
  void mark_subscriber(overlay::PeerId p);
  bool is_subscriber(overlay::PeerId p) const {
    return subscribers_.contains(p);
  }

  /// Parent of a node; root's parent is itself.
  overlay::PeerId parent(overlay::PeerId p) const;
  const std::vector<overlay::PeerId>& children(overlay::PeerId p) const;

  std::size_t node_count() const { return parent_.size(); }
  std::size_t subscriber_count() const { return subscribers_.size(); }
  std::vector<overlay::PeerId> nodes() const;
  const std::unordered_set<overlay::PeerId>& subscribers() const {
    return subscribers_;
  }

  /// Hop depth of a node below the root.
  std::size_t depth(overlay::PeerId p) const;
  std::size_t max_depth() const;

  /// Validates the tree invariants: every node reaches the root through
  /// parent links with no cycles.  Cheap enough to run in tests after
  /// every mutation batch.
  bool is_consistent() const;

 private:
  overlay::PeerId root_;
  std::unordered_map<overlay::PeerId, overlay::PeerId> parent_;
  std::unordered_map<overlay::PeerId, std::vector<overlay::PeerId>> children_;
  std::unordered_set<overlay::PeerId> subscribers_;
  static const std::vector<overlay::PeerId> kNoChildren;
};

}  // namespace groupcast::core
