// AttachLadder — how a node (re)attaches to a group's tree
// (docs/ROBUSTNESS.md, "Rung escalation").
//
// A subscriber, a relay holding deferred joins and an orphan all climb one
// ladder of rungs, each a reliable exchange: the backup parent, the advert
// parent (the paper's reverse-path join), a ripple search, then the
// rendezvous and its replicas.  The class is the ladder's state, inline in
// the node's tree record, and takes every ladder decision: the rung order,
// whom a join goes to, the cycle guard, and what orphaning, attaching,
// cancelling and dissolving do.  It knows nothing of transports or
// exchanges: the node sends, moves the tree and counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "overlay/peer.h"
#include "util/require.h"

namespace groupcast::core {

/// Sentinel depth of a node that is not (or not yet) on a tree.
inline constexpr std::uint32_t kUnknownDepth = 0xFFFFFFFFu;

/// Replicas of the rendezvous that its rung tries after it; with
/// replication on, at least the whole replica set, so an orphan can reach
/// an elected leaseholder.
inline constexpr std::size_t kRendezvousRungReplicas = 2;

/// What the ladder reads of the node and the group.
struct AttachPoints {
  overlay::PeerId self = overlay::kNoPeer;
  overlay::PeerId advert_parent = overlay::kNoPeer;  // kNoPeer: no advert
  overlay::PeerId rendezvous = overlay::kNoPeer;
  overlay::PeerId backup = overlay::kNoPeer;  // offered by the last parent
  bool replication = false;
};

class AttachLadder {
 public:
  /// Rungs in climbing order; kTerminal is past the last.  kBackup (the
  /// old parent's own parent) costs one message instead of a search.
  enum class Rung : std::uint8_t { kBackup, kAdvertParent, kRipple,
                                   kRendezvous, kTerminal };

  Rung rung() const { return rung_; }
  /// Sends since the ladder started.
  std::uint32_t attempts() const { return attempts_; }
  /// True for the peer the ladder must not target (a parent just lost).
  bool avoids(overlay::PeerId peer) const { return peer == avoid_; }

  /// Starts (or restarts) the ladder at its first applicable rung.
  Rung start(const AttachPoints& points) {
    attempts_ = 0;
    search_pending_ = false;
    return rung_ = first_from(Rung::kBackup, points);
  }
  /// The current rung gave up: the next applicable one, or kTerminal.
  Rung advance(const AttachPoints& points) {
    GC_REQUIRE(rung_ != Rung::kTerminal);
    return rung_ = first_from(next(rung_), points);
  }

  /// Counts one send of the current rung.
  void attempted() { ++attempts_; }
  /// Opens the ripple rung's next search round.
  std::uint32_t search() {
    search_pending_ = true;
    return ++search_round_;
  }
  /// A ripple hit from `holder` at `depth`: true if the ladder joins it,
  /// which closes the round.  An unsafe holder leaves it open.
  bool take_hit(overlay::PeerId self, overlay::PeerId holder,
                std::uint32_t depth) {
    if (!search_pending_ || !attach_allowed(self, holder, depth)) return false;
    search_pending_ = false;
    return true;
  }
  /// Whom attempt `attempt` of the current rung joins: the backup or the
  /// advert parent; on the rendezvous rung the rendezvous, then `replicas`
  /// round-robin, skipping self and the avoided peer.  kNoPeer when none
  /// is left, and on the ripple rung.
  overlay::PeerId join_target(const AttachPoints& points,
                              std::span<const overlay::PeerId> replicas,
                              std::size_t attempt) const {
    if (rung_ == Rung::kBackup) return points.backup;
    if (rung_ == Rung::kAdvertParent) return points.advert_parent;
    if (rung_ != Rung::kRendezvous) return overlay::kNoPeer;
    std::vector<overlay::PeerId> targets;
    const auto add = [&](overlay::PeerId peer) {
      if (peer != points.self && peer != avoid_) targets.push_back(peer);
    };
    add(points.rendezvous);
    for (const auto replica : replicas) add(replica);
    return targets.empty() ? overlay::kNoPeer
                           : targets[attempt % targets.size()];
  }
  /// The cycle guard: true if the ladder may attach under `target` at
  /// tree depth `target_depth`.
  bool attach_allowed(overlay::PeerId self, overlay::PeerId target,
                      std::uint32_t target_depth) const {
    if (target == self || target == avoid_) return false;
    if (depth_limit_ == kUnknownDepth) return true;
    // Guarded orphan: strict descendants carry a (possibly stale) depth of
    // at least ours + 1, so any target at our old depth or above the old
    // position is provably outside our own subtree.
    return target_depth != kUnknownDepth && target_depth <= depth_limit_;
  }

  /// The parent `lost` (kNoPeer for a superseded root) is gone from under
  /// this node at `depth`: avoid it, and attach no deeper than `depth`
  /// while the node has descendants (a childless orphan cannot be anyone's
  /// ancestor).
  void orphaned(overlay::PeerId lost, std::uint32_t depth,
                bool has_descendants) {
    depth_limit_ = has_descendants ? depth : kUnknownDepth;
    avoid_ = lost;
    recovering_ = true;
  }
  /// On the tree again (attached, or made root).  Returns whether this
  /// ended a recovery.
  bool attached() {
    const bool recovered = recovering_;
    search_pending_ = recovering_ = dissolved_once_ = false;
    avoid_ = overlay::kNoPeer;
    depth_limit_ = kUnknownDepth;
    return recovered;
  }
  /// The subscription was withdrawn mid-climb.
  void cancel() { search_pending_ = recovering_ = false; }
  /// The last rung gave up and the position dissolved.  True if the ladder
  /// climbs once more, unguarded: the first dissolve of a position that
  /// had children.  False means failure.
  bool dissolve(bool had_children) {
    search_pending_ = false;
    depth_limit_ = kUnknownDepth;
    if (had_children && !dissolved_once_) return dissolved_once_ = true;
    recovering_ = false;
    return false;
  }

 private:
  /// One row per rung: does it apply now?
  bool applies(Rung rung, const AttachPoints& points) const {
    const auto usable = [&](overlay::PeerId peer) {
      return peer != overlay::kNoPeer && peer != points.self && peer != avoid_;
    };
    switch (rung) {
      case Rung::kBackup:  // orphans under replication only
        return points.replication && recovering_ && usable(points.backup);
      case Rung::kAdvertParent:
        return usable(points.advert_parent);
      case Rung::kRendezvous:
        return points.rendezvous != overlay::kNoPeer &&
               points.rendezvous != points.self;
      default:  // a ripple search always applies, and so does the end
        return true;
    }
  }
  static Rung next(Rung rung) {
    return static_cast<Rung>(static_cast<std::uint8_t>(rung) + 1);
  }
  Rung first_from(Rung rung, const AttachPoints& points) const {
    while (!applies(rung, points)) rung = next(rung);
    return rung;
  }

  std::uint32_t search_round_ = 0;
  overlay::PeerId avoid_ = overlay::kNoPeer;
  /// Attach only under peers of depth <= this; kUnknownDepth: any.
  std::uint32_t depth_limit_ = kUnknownDepth;
  std::uint32_t attempts_ = 0;
  Rung rung_ = Rung::kTerminal;
  bool search_pending_ = false;
  bool recovering_ = false;      // the ladder re-attaches an orphaned position
  bool dissolved_once_ = false;  // a second terminal give-up is final
};

}  // namespace groupcast::core
