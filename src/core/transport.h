// Simulated unicast transport between middleware nodes.
//
// GroupCastNode instances exchange typed messages only through this layer:
// a send schedules delivery after the true end-to-end latency of the
// peer pair, optionally dropping the message (lossy links).  This is the
// seam where the simulation would be swapped for real sockets — the node
// logic above it is transport-agnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// Tree-edge liveness probe from a child to its parent (Section 3.3's
/// two-missed-heartbeat rule applied to SSA tree edges).
struct HeartbeatMsg {
  GroupId group = 0;
};

/// Parent's answer to a heartbeat, echoing its current tree depth so
/// children keep their depth fresh for the orphan cycle guard.
struct HeartbeatAckMsg {
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
                 HeartbeatAckMsg, ParentLostMsg, ReliableDataMsg,
                 DataNackMsg, DataAckMsg, SeqSyncMsg, FlowControlMsg,
                 LeaseMsg, LeaseAckMsg, ReplicateMsg, ReplicateAckMsg,
                 HandoffMsg, ChunkMsg>;

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

/// Per-delivery fault queries the transport consults on every send.  A
/// FaultInjector (core/fault_injection.h) implements this from a
/// sim::FaultPlan; the indirection keeps the transport free of any
/// dependency on fault-plan data.
class FaultFilter {
 public:
  virtual ~FaultFilter() = default;
  /// True if `from` and `to` are separated by an active partition.
  virtual bool blocked(overlay::PeerId from, overlay::PeerId to,
                       sim::SimTime now) const = 0;
  /// Extra drop probability from an active burst-loss interval (0 = none).
  virtual double extra_loss(sim::SimTime now) const = 0;
};

class Transport final : public sim::ShardSet::Client {
 public:
  using Handler = std::function<void(const Envelope&)>;

  Transport(sim::Simulator& simulator,
            const overlay::PeerPopulation& population,
            TransportOptions options, util::Rng& rng);

  /// Sharded mode: peers are partitioned by *access router* (all peers on
  /// one stub router share a shard), deliveries run through per-shard
  /// arrival queues in (arrival, src, per-src send counter) order, and
  /// loss/burst draws are stateless hashes of (seed, src, counter) — all
  /// of which makes the execution byte-identical at every shard count
  /// >= 2.  Installs itself as the shard set's client.
  Transport(sim::ShardSet& shards, const overlay::PeerPopulation& population,
            TransportOptions options, util::Rng& rng);

  ~Transport() override;

  /// Attaches a node; messages to `peer` are delivered to `handler`.
  void register_node(overlay::PeerId peer, Handler handler);

  /// Detaches a node.  In-flight messages *to* it are dropped on arrival
  /// in either mode; what happens to messages it already sent depends on
  /// `mode` (kCrash suppresses them, kGraceful lets them land).
  void unregister_node(overlay::PeerId peer,
                       DetachMode mode = DetachMode::kCrash);

  bool is_registered(overlay::PeerId peer) const;

  /// Sends a message; delivery is scheduled after the peers' true latency.
  /// Every send is counted, including ones that are later lost.
  void send(overlay::PeerId from, overlay::PeerId to, MessageBody body);

  /// Per-kind send counts, summed over the shards.
  MessageStats stats() const;
  std::size_t messages_sent() const;
  std::size_t messages_lost() const;
  /// Total wire bytes of every message sent (per the encoding in wire.h).
  std::size_t bytes_sent() const;

  /// The single-wheel simulator; only valid outside sharded mode.
  sim::Simulator& simulator() { return *simulator_; }
  /// The simulator that owns `peer`'s events: the shard it hashes to in
  /// sharded mode, the single wheel otherwise.  Node code resolves its
  /// clock and timers through this so it runs unchanged in both modes.
  sim::Simulator& simulator_for(overlay::PeerId peer) {
    return shards_ != nullptr ? shards_->shard(peer_shard_[peer])
                              : *simulator_;
  }
  bool sharded() const { return shards_ != nullptr; }

  /// Pre-declares an ungraceful crash at `at` (sharded mode only): a
  /// message is suppressed in flight iff its sender has a declared crash
  /// in [send, arrival].  Replaces the single-wheel generation check,
  /// which a delivering shard could not read race-free.
  void declare_crash(overlay::PeerId peer, sim::SimTime at);

  const overlay::PeerPopulation& population() const { return *population_; }

  /// Resident bytes of transport state: handler/generation tables plus
  /// the pooled in-flight slots (single-wheel) or the per-shard arrival
  /// queues and mailboxes (sharded).  Feeds the bytes_per_peer footprint
  /// gauge in bench_micro.
  std::size_t memory_bytes() const;

  // sim::ShardSet::Client:
  void merge_inbound(std::size_t shard) override;
  std::int64_t next_arrival_us(std::size_t shard) override;
  std::size_t deliver_arrivals_at(std::size_t shard,
                                  std::int64_t t_us) override;

  /// Installs (or, with nullptr, removes) the fault filter consulted on
  /// every send.  The filter must outlive its installation.
  void set_fault_filter(const FaultFilter* filter) { fault_filter_ = filter; }

 private:
  /// The constructors' common part; exactly one engine is non-null.
  Transport(sim::Simulator* simulator, sim::ShardSet* shards,
            const overlay::PeerPopulation& population,
            TransportOptions options, util::Rng& rng);

  static MessageKind kind_of(const MessageBody& body);

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One pooled in-flight message.  Delivery runs through the simulator's
  /// fixed-signature timer path with the slot index as the argument, so a
  /// send costs no per-message heap allocation: slots recycle through a
  /// free list and the pool's high-water mark is the peak number of
  /// messages concurrently in flight.
  struct InFlight {
    overlay::PeerId from = overlay::kNoPeer;
    overlay::PeerId to = overlay::kNoPeer;
    std::uint64_t sent_in = 0;
    MessageBody body;
    std::uint32_t next_free = kNoSlot;
  };

  static void deliver_thunk(void* context, std::uint64_t slot);
  void deliver(std::uint32_t slot);
  std::uint32_t allocate_slot();
  /// The delivery tail both engines share: drops the message if its
  /// sender crashed in flight (`sender_crashed`, the engine's own test) or
  /// its receiver is gone, else hands it to the receiver's handler.
  void dispatch(std::int64_t now_us, overlay::PeerId from, overlay::PeerId to,
                bool sender_crashed, MessageBody&& body);

  /// One cross-shard (or same-shard) delivery in flight.  Arrival queues
  /// pop in ascending (arrival_us, from, counter) — a total order, since
  /// (from, counter) is unique — so delivery order does not depend on
  /// which epoch barrier merged the record.
  struct ShardRecord {
    std::int64_t send_us = 0;
    std::int64_t arrival_us = 0;
    std::uint64_t counter = 0;
    overlay::PeerId from = overlay::kNoPeer;
    overlay::PeerId to = overlay::kNoPeer;
    MessageBody body;
  };
  struct LaterRecord {
    bool operator()(const ShardRecord& a, const ShardRecord& b) const {
      if (a.arrival_us != b.arrival_us) return a.arrival_us > b.arrival_us;
      if (a.from != b.from) return a.from > b.from;
      return a.counter > b.counter;
    }
  };
  /// Per-shard message-plane state, owned by the shard's worker thread
  /// (outboxes hand over at epoch barriers; the main thread may touch any
  /// shard while the workers are parked).  The single wheel keeps its
  /// counters in one of these and leaves the queues empty.
  struct alignas(64) ShardState {
    MessageStats stats;
    std::size_t sent = 0;
    std::size_t lost = 0;
    std::size_t bytes_sent = 0;
    std::vector<ShardRecord> arrivals;               // min-heap, LaterRecord
    std::vector<std::vector<ShardRecord>> outbox;    // indexed by dst shard
  };

  /// The loss draw for one send, true with probability p.  The single
  /// wheel draws from its sequential RNG; sharded, it is a stateless
  /// splitmix64 hash of (seed, stream, counter) mapped to [0, 1), which is
  /// independent of thread interleaving and shard count.
  bool lost(double p, std::uint64_t stream, std::uint64_t counter);
  /// `field` summed over the shard states.
  std::size_t total(std::size_t ShardState::*field) const;

  sim::Simulator* simulator_;
  const overlay::PeerPopulation* population_;
  TransportOptions options_;
  /// Access-link pacing (null when both caps are 0).  Uplink buckets are
  /// only touched from the owning sender's send path, so the model needs
  /// no synchronization even in sharded mode.
  std::unique_ptr<net::BandwidthModel> bandwidth_;
  util::Rng rng_;
  std::vector<Handler> handlers_;
  /// Bumped on every unregister; a delivery whose captured generation is
  /// stale came from a peer that crashed mid-flight and is suppressed.
  std::vector<std::uint64_t> generation_;
  const FaultFilter* fault_filter_ = nullptr;
  std::vector<InFlight> inflight_;
  std::uint32_t free_head_ = kNoSlot;
  /// One per shard; exactly one on the single wheel.
  std::vector<ShardState> shard_state_;

  // Sharded-mode state (empty in single-wheel mode).
  sim::ShardSet* shards_ = nullptr;
  std::uint64_t loss_seed_ = 0;
  std::vector<std::uint32_t> peer_shard_;
  std::vector<std::uint64_t> send_counter_;
  /// Declared crash instant per peer, or -1 (none).
  std::vector<std::int64_t> crash_at_us_;
};

}  // namespace groupcast::core
