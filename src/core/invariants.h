// Structural invariants of a deployed dissemination tree.
//
// The fault-injection harness asserts these after every convergence
// window: whatever crashes, partitions, and losses were injected, the
// surviving nodes' *local* views must still compose into a sane global
// tree.  Checked over a TreeView of the node runtime (each GroupCastNode
// only exposes its own state — the checker is the omniscient observer,
// the protocol never is):
//   * parent/child symmetry — a node's parent lists it as a child, and
//     every listed child points back;
//   * no edges to departed peers — neither parents nor children may
//     reference a stopped node;
//   * acyclicity — parent links never loop;
//   * reachability — every expected subscriber still running is connected
//     to the rendezvous point through tree edges.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/node.h"

namespace groupcast::core {

struct InvariantReport {
  /// Human-readable descriptions of every violated invariant.
  std::vector<std::string> violations;
  /// Running nodes currently on the tree.
  std::size_t tree_nodes = 0;
  /// Expected subscribers alive and reachable from the rendezvous point.
  std::size_t reachable_subscribers = 0;
  /// Expected subscribers alive but cut off (each also a violation).
  std::size_t stranded_subscribers = 0;

  bool ok() const { return violations.empty(); }
};

/// One group's tree as the deployment's nodes see it, flat: a row per
/// peer (indexed by PeerId) and every node's child list in one CSR array.
/// The checker reads nothing else, so a view can be filled shard by shard
/// and checked once.
struct TreeView {
  /// Sized for `peers` peers, none of them running.
  explicit TreeView(std::size_t peers = 0)
      : live(peers, 0),
        member(peers, 0),
        parent(peers, overlay::kNoPeer),
        child_begin(peers + 1, 0) {}

  /// Running (deployed and not stopped); a peer that is not counts as
  /// departed.
  std::vector<std::uint8_t> live;
  /// Running and on the tree.
  std::vector<std::uint8_t> member;
  /// Tree parent of a member (itself at the root); kNoPeer otherwise.
  std::vector<overlay::PeerId> parent;
  /// Peer p's children are children[child_begin[p], child_begin[p + 1]),
  /// in join order; a running peer lists them on or off the tree.
  std::vector<std::uint32_t> child_begin;
  std::vector<overlay::PeerId> children;

  std::size_t size() const { return live.size(); }
  bool alive(overlay::PeerId p) const { return p < size() && live[p] != 0; }
  bool on_tree(overlay::PeerId p) const { return alive(p) && member[p] != 0; }
  std::span<const overlay::PeerId> children_of(overlay::PeerId p) const {
    return {children.data() + child_begin[p],
            children.data() + child_begin[p + 1]};
  }
  bool operator==(const TreeView&) const = default;
};

/// The per-node fill both view builders share: writes peer `p`'s row of
/// `view` from `node` (null: never deployed), stores its child count in
/// view.child_begin[p + 1] and appends the children, in join order, to
/// `children`.  A builder turns the counts into offsets once every row is
/// filled.  Touches only row p, so rows of different peers can be filled
/// on different threads.
void fill_tree_row(TreeView& view, overlay::PeerId p,
                   const GroupCastNode* node, GroupId group,
                   std::vector<overlay::PeerId>& children);

/// `group`'s view over `nodes` (indexed by PeerId, null entries = peer
/// never deployed), filled on the calling thread.  The node runtime fills
/// the same view per shard (metrics::detail::NodeRuntime::tree_view).
TreeView tree_view(const std::vector<const GroupCastNode*>& nodes,
                   GroupId group);

/// Checks the tree invariants over `view`, in O(peers + edges).
/// `expected_subscribers` lists the peers that ought to be receiving the
/// group (departed ones are skipped).  Violations are reported in a fixed
/// order: the per-peer parent/children pass in PeerId order, then the
/// cycle walk, then each unreachable expected subscriber.
InvariantReport check_tree_invariants(
    const TreeView& view, overlay::PeerId rendezvous,
    const std::vector<overlay::PeerId>& expected_subscribers = {});

struct ReplicationInvariantReport {
  std::vector<std::string> violations;
  /// Live replication members currently claiming the group lease.
  std::size_t leaseholders = 0;
  /// Highest committed epoch among live members.
  std::uint32_t max_epoch = 0;
  /// Distinct epochs across the union of live members' lease logs.
  std::size_t union_records = 0;
  /// Epochs whose records name different leaders on different members.
  std::size_t conflicting_records = 0;

  bool ok() const { return violations.empty(); }
};

/// RP-consistency of `group`'s rendezvous replica set
/// (docs/ROBUSTNESS.md, "Rendezvous replication & quorum handoff").
///
/// `sides` partitions the live members for the mid-partition check: at
/// most one leaseholder may exist *per side* (each inner vector lists the
/// peers of one side; members absent from every side are grouped
/// together).  Pass no sides for the healed-network check, which is
/// stricter: at most one leaseholder overall, every live member on the
/// same (epoch, leader), identical lease logs, and no epoch claimed by
/// two leaders anywhere in the union of logs — i.e. the heal merged the
/// divergent histories without duplicating or losing an epoch.
ReplicationInvariantReport check_replication_invariants(
    const std::vector<const GroupCastNode*>& nodes, GroupId group,
    const std::vector<std::vector<overlay::PeerId>>& sides = {});

}  // namespace groupcast::core
