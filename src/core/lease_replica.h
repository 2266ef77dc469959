// LeaseReplica — rendezvous replication with leased leadership, the live
// form of the paper's Section 6 reliability-through-replication extension
// (docs/ROBUSTNESS.md, "Rendezvous replication & quorum handoff").
//
// The rendezvous point and its deterministic rendezvous_replicas form a
// fixed member set holding a replicated epoch log of leadership records.
// The leaseholder renews its lease to a majority in quorum rounds over a
// ReliableExchange retry ladder; a member whose lease view expires
// proposes a takeover at a higher epoch, and becomes leaseholder once a
// majority grants it; divergent logs reconcile by epoch union when a
// partition heals.
//
// A node constructs its LeaseReplica only with ReplicationOptions on.
// Per-group replica state (ReplState) lives inside the node's own
// per-group tree record, which the host creates on first use.  Besides
// looking a group's state up, the replica calls back into the node for
// two things only: making the node the acting tree root, and
// re-laddering a superseded root.
#pragma once

#include <functional>
#include <vector>

#include "core/reliable_exchange.h"
#include "core/shared_tick.h"
#include "core/transport.h"
#include "util/rng.h"

namespace groupcast::core {

/// Optional liveness predicate for rendezvous_replicas: true while the
/// peer is still reachable.  Callers that pass one must apply the *same*
/// view everywhere they need agreement — the replication member set, for
/// instance, is always derived unfiltered so it never shifts under churn.
using LivenessFilter = std::function<bool(overlay::PeerId)>;

/// Deterministic rendezvous replica set for a group: `count` distinct
/// peers derived by hashing (group, index), never including `primary`.
/// Any node can compute the same set locally, so a subscriber whose joins
/// to a crashed rendezvous point keep timing out has agreed-upon fallback
/// attach targets without any coordination (the replicas hold the group
/// advertisement with high probability and accept joins like any other
/// advert holder).  `count` must leave room for the primary
/// (count < population).  With a liveness filter, departed peers are
/// skipped along the same probe sequence; the result may then be shorter
/// than `count` when too few live peers remain.
std::vector<overlay::PeerId> rendezvous_replicas(
    std::uint32_t group, overlay::PeerId primary, std::size_t population,
    std::size_t count, const LivenessFilter& alive = nullptr);

/// Rendezvous replication with leased leadership.  Also arms rung 0 of
/// the recovery ladder: parents piggyback their own parent on
/// Join/Heartbeat acks so an orphan can try its grandparent before the
/// advert-parent/ripple/rendezvous ladder.  Off by default: no timers, no
/// RNG draws, no messages — byte-identical.
struct ReplicationOptions {
  bool enabled = false;
  /// Replica count beside the rendezvous point (member set = 1 + this;
  /// the default gives a 3-member set with majority 2).
  std::size_t replicas = 2;
  /// Leaseholder renewal period; also the stagger unit for takeover
  /// candidates (member rank * interval) so proposals do not collide.
  sim::SimTime lease_interval = sim::SimTime::millis(500);

  friend bool operator==(const ReplicationOptions&,
                         const ReplicationOptions&) = default;
};

/// The lease duration — how long a member tolerates lease silence before
/// proposing a takeover — in renewal intervals: enough retry headroom
/// past one missed renewal.
inline constexpr std::int64_t kLeaseIntervals = 4;

/// Per-member replication state: the fixed member set, the committed
/// epoch/leader view, the promise floor for takeover proposals, and the
/// epoch log that reconciles on heal.  Inert (all defaults, no timers)
/// unless this node is in the member set.
struct ReplState {
  bool member = false;
  /// The group's original rendezvous point — the seed the member set is
  /// derived from, carried on every replication message so receivers can
  /// verify membership statelessly.
  overlay::PeerId origin = overlay::kNoPeer;
  /// {origin} + rendezvous_replicas(group, origin, ...), in derivation
  /// order; a member's takeover stagger rank is its index here.
  std::vector<overlay::PeerId> members;
  std::uint32_t epoch = 0;     // highest committed epoch known
  std::uint32_t promised = 0;  // highest epoch promised to a candidate
  overlay::PeerId leader = overlay::kNoPeer;
  bool leaseholder = false;
  sim::SimTime last_lease_seen;
  /// Committed leadership records, sorted by epoch (union-merged).
  std::vector<LeaseRecord> log;
  /// One in-flight quorum round (renewal, initial write, or handoff).
  ReliableExchange::Token round = ReliableExchange::kNoToken;
  std::uint32_t round_epoch = 0;
  bool round_is_handoff = false;
  sim::SimTime round_started;
  std::vector<overlay::PeerId> round_acked;  // unique acking members
  bool tick_scheduled = false;  // enrolled in the shared lease tick
  /// Candidate the `promised` epoch was granted to — a lost grant can be
  /// re-issued to the same candidate on retry, never to a rival.
  overlay::PeerId promised_to = overlay::kNoPeer;
};

class LeaseReplica {
 public:
  /// What the replica needs from the node that runs it.
  class Host {
   public:
    /// The group's replica state (in the node's per-group tree record,
    /// created on first use).
    virtual ReplState& replica(GroupId group) = 0;
    /// A takeover committed: make this node the group's acting tree root.
    virtual void root_self(GroupId group) = 0;
    /// A newer leader superseded this node: an acting root folds its
    /// subtree back under the new structure by re-running its ladder.
    virtual void superseded(GroupId group) = 0;

   protected:
    ~Host() = default;
  };

  /// Validates `options` and constructs the quorum-round exchange, which
  /// splits `rng` (the node's stream) once.  Retries pace at the lease
  /// interval and stop by the lease duration: a round still open then
  /// has lost its quorum.
  LeaseReplica(Host& host, overlay::PeerId self, Transport& transport,
               const ReplicationOptions& options, util::Rng& rng);

  LeaseReplica(const LeaseReplica&) = delete;
  LeaseReplica& operator=(const LeaseReplica&) = delete;

  /// Derives the member set for (`group`, `rendezvous`) and, if this node
  /// belongs to it, initializes `repl` (baseline epoch-1 record) and
  /// enrols it in the lease tick.  Returns the member flag.
  bool ensure_member(GroupId group, ReplState& repl,
                     overlay::PeerId rendezvous);
  /// The group's creator starts as leaseholder of epoch 1 and majority-
  /// acks the group's creation before the lease cycle takes over.
  void create(GroupId group, ReplState& repl);
  /// Abandons every quorum round and stops the lease tick (the node is
  /// departing).
  void stop();

  void handle(ReplState& repl, overlay::PeerId from, const LeaseMsg& msg);
  void handle(ReplState& repl, overlay::PeerId from, const LeaseAckMsg& msg);
  void handle(ReplState& repl, overlay::PeerId from, const ReplicateMsg& msg);
  void handle(ReplState& repl, overlay::PeerId from,
              const ReplicateAckMsg& msg);
  void handle(ReplState& repl, overlay::PeerId from, const HandoffMsg& msg);

  /// Bytes of this object (its exchange and tick included).
  std::size_t memory_bytes() const { return sizeof(*this); }
  /// Bytes of one group's member set, round and log beyond
  /// sizeof(ReplState).
  static std::size_t memory_bytes(const ReplState& repl);

 private:
  sim::SimTime now() const;
  void schedule_tick(GroupId group, ReplState& repl);
  static void tick_thunk(void* context, std::uint64_t);
  void tick(GroupId group);
  /// Opens a quorum round: a lease renewal / initial-write broadcast, or
  /// a takeover proposal for `epoch` (round_is_handoff).
  void start_round(GroupId group, ReplState& repl, bool handoff,
                   std::uint32_t epoch);
  /// Records one member's ack for the open round; commits on majority.
  void note_ack(GroupId group, ReplState& repl, overlay::PeerId from,
                std::uint32_t acked_epoch);
  /// Settles the open round once acks (+ self) reach a majority — also
  /// called right after opening, which is what lets a degenerate
  /// one-member set commit on its own vote.
  void maybe_commit(GroupId group, ReplState& repl);
  /// Majority granted the takeover: adopt the epoch, become leaseholder
  /// and acting tree root, append + push the new record.
  void commit_handoff(GroupId group, ReplState& repl);
  /// Inserts one record into the epoch log (union merge); a mismatched
  /// leader for an existing epoch counts kEpochConflicts and keeps the
  /// incumbent record.
  void merge(ReplState& repl, const LeaseRecord& record);
  /// Adopts a higher committed (epoch, leader) view: steps down if this
  /// node was leaseholder, and hands an acting root to the host for the
  /// heal's tree half.
  void adopt(GroupId group, ReplState& repl, std::uint32_t epoch,
             overlay::PeerId leader);
  /// Pushes this member's full log to `to` when `head`/`size` show the
  /// peer is behind (anti-entropy sweep).
  void maybe_push_log(GroupId group, const ReplState& repl,
                      overlay::PeerId to, std::uint32_t peer_head,
                      std::uint32_t peer_size);
  /// The newest epoch in the log (0 when empty): the head that acks report.
  static std::uint32_t log_head(const ReplState& repl);

  Host* host_;
  Transport* transport_;
  const ReplicationOptions* options_;
  overlay::PeerId self_;
  RetryPolicy retry_;  // derived from the lease interval; read by exchange_
  ReliableExchange exchange_;
  SharedTick tick_;
};

}  // namespace groupcast::core
