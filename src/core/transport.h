// Simulated unicast transport between middleware nodes.
//
// GroupCastNode instances exchange typed messages only through this layer:
// a send schedules delivery after the true end-to-end latency of the
// peer pair, optionally dropping the message (lossy links).  This is the
// seam where the simulation would be swapped for real sockets — the node
// logic above it is transport-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "core/message.h"
#include "net/bandwidth.h"
#include "overlay/population.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"

namespace groupcast::core {

using GroupId = std::uint32_t;

// ---------------------------------------------------------------- payloads

/// Group advertisement (SSA/NSSA), Section 2.2 step 2.
struct AdvertiseMsg {
  GroupId group = 0;
  overlay::PeerId rendezvous = overlay::kNoPeer;
  std::uint32_t ttl = 0;
};

/// Join travelling in the reverse direction of the advertisement.
struct JoinMsg {
  GroupId group = 0;
  /// The peer that wants to become a child of the receiver.
  overlay::PeerId child = overlay::kNoPeer;
};

/// Join confirmation from the attach point.  `depth` is the acker's tree
/// depth (root = 0); the new child adopts depth + 1.  Orphans use it to
/// refuse attach points inside their own subtree (see docs/ROBUSTNESS.md).
struct JoinAckMsg {
  GroupId group = 0;
  std::uint32_t depth = 0;
  // The acker's own tree parent (the new child's grandparent), offered as
  // a precomputed backup attach target for rung 0 of the recovery ladder.
  // Populated only with ReplicationOptions enabled and deliberately *not*
  // wire-encoded, so byte accounting and the encoded format are unchanged
  // (a real deployment would piggyback it on the ack header).
  overlay::PeerId backup = overlay::kNoPeer;
};

/// Scoped subscription lookup (ripple search), Section 2.2 step 3.
/// `round` distinguishes re-searches by the same origin so duplicate
/// suppression does not swallow retries.
struct RippleQueryMsg {
  GroupId group = 0;
  overlay::PeerId origin = overlay::kNoPeer;
  std::uint32_t ttl = 0;
  std::uint32_t round = 0;
};

/// Lookup hit travelling back to the searcher; `depth` is the holder's
/// tree depth (for the orphan cycle guard).
struct RippleHitMsg {
  GroupId group = 0;
  overlay::PeerId holder = overlay::kNoPeer;
  std::uint32_t depth = 0;
};

/// Application payload on a tree edge.
struct DataMsg {
  GroupId group = 0;
  overlay::PeerId origin = overlay::kNoPeer;
  std::uint64_t payload_id = 0;
  // Tree edges this copy will have traversed on arrival (1 for a copy
  // sent by the origin).  Provenance metadata for the dissemination
  // tracer — deliberately *not* wire-encoded, so byte accounting and the
  // encoded format are unchanged (a real deployment would fold it into
  // an existing header byte).
  std::uint32_t hops = 0;
};

/// Leave notification from a child to its tree parent.
struct LeaveMsg {
  GroupId group = 0;
  overlay::PeerId child = overlay::kNoPeer;
};

/// Tree-edge liveness beat from a child to its parent (Section 3.3's
/// two-missed-heartbeat rule applied to SSA tree edges).  One-way: the
/// parent answers nothing, it beats on its own tick (ParentBeatMsg).  A
/// child that already sent its parent something this interval skips it.
struct HeartbeatMsg {
  GroupId group = 0;
};

/// Tree-edge liveness beat from a parent to a child, carrying the parent's
/// current tree depth so children keep theirs fresh for the orphan cycle
/// guard.  Also pushed unsolicited whenever that depth (or the backup)
/// changes, since a beat the edge's traffic stood in for carries neither.
struct ParentBeatMsg {
  GroupId group = 0;
  std::uint32_t depth = 0;
  // Backup attach target refresh (the parent's own parent); in-memory
  // only, like JoinAckMsg::backup.
  overlay::PeerId backup = overlay::kNoPeer;
};

/// A node dissolving its tree position tells its children to re-attach.
struct ParentLostMsg {
  GroupId group = 0;
};

/// One chunk of a live stream on a tree edge (docs: EXPERIMENTS.md,
/// "Streaming workloads").  `stream` identifies the source stream within
/// the group (multi-source groups carry several), `chunk_id` the chunk's
/// position in it, and `deadline_us` the absolute sim time after which
/// delivery no longer helps the player — receivers count a late chunk
/// against the miss ratio.  `payload_bytes` is the chunk body size: the
/// wire encoding carries (and encoded_size() counts) that many bytes, so
/// bandwidth-capped transports see streaming load as bytes/sec, which is
/// the whole point of the workload.  With data-plane reliability on,
/// `epoch`/`seq` carry the same per-edge sequencing as ReliableDataMsg;
/// on the fire-and-forget path both stay 0 (edge epochs start at 1).
struct ChunkMsg {
  GroupId group = 0;
  overlay::PeerId origin = overlay::kNoPeer;
  std::uint32_t stream = 0;
  std::uint32_t chunk_id = 0;
  std::int64_t deadline_us = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  // Hop depth on arrival; provenance metadata, not wire-encoded (see
  // DataMsg::hops).
  std::uint32_t hops = 0;
};

// --- reliable data plane (docs/ROBUSTNESS.md, "Data-plane reliability") ---

/// Sequenced application payload on a reliable tree edge.  `epoch`
/// identifies the directed edge's incarnation (the sender bumps it on
/// every (re)attach of the edge); `seq` numbers payloads from 0 within
/// the epoch, per directed edge.
struct ReliableDataMsg {
  GroupId group = 0;
  overlay::PeerId origin = overlay::kNoPeer;
  std::uint64_t payload_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  // Hop depth on arrival; provenance metadata, not wire-encoded (see
  // DataMsg::hops).
  std::uint32_t hops = 0;
};

/// Receiver-driven retransmit request for a batch of missing sequence
/// numbers on one directed edge: bit i of `missing` set means sequence
/// `base_seq + i` has not arrived (a 64-seq window per request).
struct DataNackMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  std::uint64_t base_seq = 0;
  std::uint64_t missing = 0;
};

/// Cumulative receiver acknowledgement: every sequence < `cumulative`
/// arrived, so the sender may trim its retransmit buffer to that point.
struct DataAckMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  std::uint64_t cumulative = 0;
};

/// Edge sequence announcement from the directed-edge sender: emitted when
/// the edge is (re)established via the join handshake, and re-emitted as
/// a tail-loss probe while acks are overdue.  `base_seq` is the oldest
/// sequence the sender can still retransmit (its buffer front), `next_seq`
/// the one it will assign next.  The receiver aligns to [base, next) —
/// adopting `base_seq` wholesale on an epoch change, which is what keeps
/// a reattached child from NACK-storming into a dead incarnation — and
/// answers with an ack, or a NACK when the window exposes a gap.
struct SeqSyncMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  std::uint64_t base_seq = 0;
  std::uint64_t next_seq = 0;
};

/// Backpressure notice travelling one hop against the data flow (child to
/// tree parent): the sender's window toward some downstream edge closed
/// (`throttled`) or fully drained (`!throttled`), so the parent should
/// pause / resume feeding this node.  Sent only with flow control enabled
/// (DataReliabilityOptions::flow_control); a lost resume is healed by the
/// sender's ack-overdue probe, which doubles as a throttle-release retry.
struct FlowControlMsg {
  GroupId group = 0;
  bool throttled = false;
};

// --- rendezvous replication (docs/ROBUSTNESS.md, "Rendezvous replication
// & quorum handoff") ---

/// One committed leadership record: `leader` held the lease for `epoch`.
/// The per-group replication log is a set of these, keyed by epoch; logs
/// merge by epoch union, which is what makes partition heal reconcile
/// without duplicate or lost epochs.
struct LeaseRecord {
  std::uint32_t epoch = 0;
  overlay::PeerId leader = overlay::kNoPeer;

  friend bool operator==(const LeaseRecord&, const LeaseRecord&) = default;
};

/// Lease renewal broadcast from the current leaseholder to the other
/// replica-set members.  `rendezvous` is the group's *original* RP — the
/// member set is derived from it (`rendezvous_replicas`), so any receiver
/// can verify its own membership without prior state.
struct LeaseMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  overlay::PeerId leader = overlay::kNoPeer;
  overlay::PeerId rendezvous = overlay::kNoPeer;
};

/// A member's answer to a LeaseMsg or HandoffMsg: it accepts `epoch`.
/// `head_epoch`/`log_size` summarize the member's replication log so the
/// leaseholder can push a full ReplicateMsg when the member has diverged
/// (anti-entropy on heal).
struct LeaseAckMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  std::uint32_t head_epoch = 0;
  std::uint32_t log_size = 0;
};

/// Replicated advert/leadership state push: the sender's full epoch log.
/// Doubles as the grant reply to a HandoffMsg (then `epoch`/`leader` echo
/// the proposal and `records` carry the granter's log, so the candidate
/// learns every record committed under earlier epochs — the Paxos
/// prepare-phase read).
struct ReplicateMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  overlay::PeerId leader = overlay::kNoPeer;
  overlay::PeerId rendezvous = overlay::kNoPeer;
  std::vector<LeaseRecord> records;
};

/// Acknowledges a ReplicateMsg push; same log summary as LeaseAckMsg.
struct ReplicateAckMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  std::uint32_t head_epoch = 0;
  std::uint32_t log_size = 0;
};

/// Leadership takeover proposal from `candidate` for (monotonic) `epoch`.
/// A member grants iff the epoch is above both its committed epoch and
/// anything it already promised; the candidate commits on a majority of
/// grants, which is what keeps a minority side from ever handing off.
struct HandoffMsg {
  GroupId group = 0;
  std::uint32_t epoch = 0;
  overlay::PeerId candidate = overlay::kNoPeer;
  overlay::PeerId rendezvous = overlay::kNoPeer;
};

/// Every protocol message.  Append-only: a message's wire tag is its
/// index here + 1 (core/wire.h), so reordering or removing an alternative
/// changes the protocol.
using MessageBody =
    std::variant<AdvertiseMsg, JoinMsg, JoinAckMsg, RippleQueryMsg,
                 RippleHitMsg, DataMsg, LeaveMsg, HeartbeatMsg,
                 ParentBeatMsg, ParentLostMsg, ReliableDataMsg,
                 DataNackMsg, DataAckMsg, SeqSyncMsg, FlowControlMsg,
                 LeaseMsg, LeaseAckMsg, ReplicateMsg, ReplicateAckMsg,
                 HandoffMsg, ChunkMsg>;

/// Number of message types: MessageBody's alternatives.
inline constexpr std::size_t kMessageTypes =
    std::variant_size_v<MessageBody>;

/// snake_case name of message type `type` (a MessageBody index), for
/// reports.
const char* message_type_name(std::size_t type);

/// Send counts per message type, indexed like MessageBody.
class MessageTypeStats {
 public:
  void count(std::size_t type, std::size_t n = 1) { counts_[type] += n; }
  std::size_t of(std::size_t type) const { return counts_[type]; }
  MessageTypeStats& operator+=(const MessageTypeStats& other) {
    for (std::size_t i = 0; i < kMessageTypes; ++i) {
      counts_[i] += other.counts_[i];
    }
    return *this;
  }

 private:
  std::array<std::size_t, kMessageTypes> counts_{};
};

struct Envelope {
  overlay::PeerId from = overlay::kNoPeer;
  overlay::PeerId to = overlay::kNoPeer;
  MessageBody body;
};

// --------------------------------------------------------------- transport

struct TransportOptions {
  /// Independent per-message drop probability (0 = reliable).
  double loss_probability = 0.0;
  /// Per-peer access-link caps (net/bandwidth.h).  Both at 0 — the
  /// default — skips the model entirely: no pacing state is built and
  /// every delivery time stays byte-identical to before.
  net::BandwidthCaps bandwidth;
};

/// How a node comes off the transport (see unregister_node).
enum class DetachMode {
  /// Ungraceful: messages the node already sent but that have not yet been
  /// delivered are suppressed — a crashed node's packets die with it.
  kCrash,
  /// Graceful: already-sent messages still deliver, so a final control
  /// message (e.g. a Leave fired just before stop) reaches its peer.
  kGraceful,
};

/// Per-delivery fault query the transport consults on every send.  A
/// FaultInjector (core/fault_injection.h) implements this from a
/// sim::FaultPlan; the indirection keeps the transport free of any
/// dependency on fault-plan data.
class FaultFilter {
 public:
  virtual ~FaultFilter() = default;
  /// True if `from` and `to` are separated by an active partition.
  virtual bool blocked(overlay::PeerId from, overlay::PeerId to,
                       sim::SimTime now) const = 0;
};

/// One send/deliver path at every shard count: peers are partitioned by
/// stub domain (core/shard_partition.h), every message becomes a keyed
/// event of its receiver's shard simulator, keyed
/// by (sender, per-sender send counter), and loss draws are stateless
/// hashes of (seed, sender, counter).  Within an instant deliveries
/// therefore fire in (sender, counter) order before any plain timer,
/// whichever shard or epoch scheduled them, and the execution is
/// byte-identical at every shard count.
class Transport final : public sim::ShardSet::Client {
 public:
  using Handler = std::function<void(const Envelope&)>;

  /// A one-shard transport on a bare simulator (unit tests, bench_micro).
  Transport(sim::Simulator& simulator,
            const overlay::PeerPopulation& population,
            TransportOptions options, util::Rng& rng);

  /// A transport over `shards`' simulators, running peer p's events on
  /// shard peer_shard[p] (a partition_shards() split, whose lookahead the
  /// shard set must run with); installs itself as the shard set's client.
  Transport(sim::ShardSet& shards, const overlay::PeerPopulation& population,
            std::span<const std::uint32_t> peer_shard,
            TransportOptions options, util::Rng& rng);

  ~Transport() override;

  /// Attaches a node; messages to `peer` are delivered to `handler`.
  void register_node(overlay::PeerId peer, Handler handler);

  /// Detaches a node.  In-flight messages *to* it are dropped on arrival;
  /// what happens to messages it already sent depends on `mode` (kCrash
  /// suppresses them, kGraceful lets them land).  On a one-shard
  /// transport kCrash records the crash at now(); with several shards a
  /// crash must be declared up front (declare_crash), since other shards
  /// read the crash instant while they deliver.
  void unregister_node(overlay::PeerId peer,
                       DetachMode mode = DetachMode::kCrash);

  /// True if `peer` crashed at or before `now`, by the crash marks: a
  /// declared crash from before the run, or one that unregister_node
  /// recorded on a one-shard transport.  Unlike the handler table, which
  /// the victim's shard changes mid-run, the marks are safe to read from
  /// any shard, and the answer is the same at every shard count.
  bool crashed(overlay::PeerId peer, sim::SimTime now) const;

  /// Sends a message; delivery is scheduled after the peers' true latency.
  /// Every send is counted, including ones that are later lost.
  void send(overlay::PeerId from, overlay::PeerId to, MessageBody body);

  /// Per-kind send counts, summed over the shards.
  MessageStats stats() const;
  /// Per-type send counts, summed over the shards.
  MessageTypeStats type_stats() const;
  std::size_t messages_sent() const;
  std::size_t messages_lost() const;
  /// Total wire bytes of every message sent (per the encoding in wire.h).
  std::size_t bytes_sent() const;

  /// The simulator that owns `peer`'s events: the wheel of its shard.
  /// Node code resolves its clock and timers through this.
  sim::Simulator& simulator_for(overlay::PeerId peer) {
    return *simulators_[peer_shard_[peer]];
  }

  /// Declares an ungraceful crash of `peer` at `at`, before the run
  /// reaches it: a message is suppressed in flight iff its sender crashed
  /// after sending it and at or before its arrival.
  void declare_crash(overlay::PeerId peer, sim::SimTime at);

  const overlay::PeerPopulation& population() const { return *population_; }

  /// Resident bytes of transport state: the per-peer tables plus each
  /// shard's pooled in-flight slots and mailboxes.  Feeds the
  /// bytes_per_peer footprint gauge in bench_micro.
  std::size_t memory_bytes() const;

  // sim::ShardSet::Client:
  void merge_inbound(std::size_t shard) override;

  /// Installs (or, with nullptr, removes) the fault filter consulted on
  /// every send.  The filter must outlive its installation.
  void set_fault_filter(const FaultFilter* filter) { fault_filter_ = filter; }

 private:
  /// The constructors' common part: one simulator per shard.
  Transport(std::vector<sim::Simulator*> simulators, sim::ShardSet* shards,
            const overlay::PeerPopulation& population,
            std::vector<std::uint32_t> peer_shard, TransportOptions options,
            util::Rng& rng);

  /// The kind message type `type` (a MessageBody index) counts under.
  static MessageKind kind_of(std::size_t type);

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One message in flight, in a pooled slot of its receiver's shard.
  /// Its delivery is a keyed event of that shard's simulator with key
  /// (sender, send counter) and argument (shard, slot), so a send costs no
  /// per-message heap allocation: slots recycle through a per-shard free
  /// list.
  struct InFlight {
    overlay::PeerId to = overlay::kNoPeer;
    std::uint32_t next_free = kNoSlot;
    std::int64_t send_us = 0;
    MessageBody body;
  };
  /// A message parked for another shard until the next epoch barrier.
  struct Outbound {
    std::int64_t arrival_us = 0;
    std::uint64_t key = 0;
    InFlight message;
  };
  /// Per-shard message-plane state, owned by the shard's worker thread
  /// (outboxes hand over at epoch barriers; the main thread may touch any
  /// shard while the workers are parked).
  struct alignas(64) ShardState {
    MessageTypeStats types;
    std::size_t sent = 0;
    std::size_t lost = 0;
    std::size_t bytes_sent = 0;
    std::vector<InFlight> inflight;
    std::uint32_t free_head = kNoSlot;
    std::vector<std::vector<Outbound>> outbox;  // indexed by dst shard
  };
  /// When a peer crashed: at `at_us`, after its first `sends` sends (a
  /// declared crash follows every send of its instant).
  struct CrashMark {
    std::int64_t at_us = -1;
    std::uint32_t sends = 0xFFFFFFFFu;
  };

  /// Parks `message` in a pooled slot of `shard` and schedules its
  /// delivery there at `arrival_us` under `key`.
  void schedule(std::size_t shard, std::int64_t arrival_us,
                std::uint64_t key, InFlight&& message);
  static void deliver_thunk(void* context, std::uint64_t key,
                            std::uint64_t arg);
  /// Drops the message (sent by `from` as its `counter`-th send) in
  /// `slot` of `shard` if its sender crashed in flight or its receiver is
  /// gone, else hands it to the receiver.
  void deliver(overlay::PeerId from, std::uint32_t counter,
               std::uint32_t shard, std::uint32_t slot);

  /// The loss draw for one send, true with probability p: a stateless
  /// splitmix64 hash of (seed, stream, counter) mapped to [0, 1), which is
  /// independent of thread interleaving and shard count.
  bool lost(double p, std::uint64_t stream, std::uint64_t counter) const;
  /// `field` summed over the shard states.
  std::size_t total(std::size_t ShardState::*field) const;

  /// One per shard; the shard set's wheels, or the bare simulator.
  std::vector<sim::Simulator*> simulators_;
  sim::ShardSet* shards_;
  const overlay::PeerPopulation* population_;
  TransportOptions options_;
  /// Access-link pacing (null when both caps are 0).  Uplink buckets are
  /// only touched from the owning sender's send path, so the model needs
  /// no synchronization.
  std::unique_ptr<net::BandwidthModel> bandwidth_;
  std::uint64_t loss_seed_;
  std::vector<Handler> handlers_;
  const FaultFilter* fault_filter_ = nullptr;
  std::vector<ShardState> shard_state_;
  std::vector<std::uint32_t> peer_shard_;
  std::vector<std::uint32_t> send_counter_;
  std::vector<CrashMark> crash_;
};

}  // namespace groupcast::core
