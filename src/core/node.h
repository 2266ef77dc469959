// GroupCastNode — the per-peer middleware runtime.
//
// While AdvertisementEngine / SubscriptionProtocol compute whole-overlay
// outcomes centrally (cheap for the Section 4 parameter sweeps), this class
// is the *deployable* form of the same protocols: every peer runs one
// GroupCastNode, all coordination happens through typed messages over the
// Transport, and no node touches another node's state.  Applications sit
// on top of exactly this API:
//
//   GroupCastNode node(self, transport, graph, options, rng);
//   node.start();
//   node.on_data([](GroupId g, std::uint64_t id, PeerId origin) { ... });
//   node.subscribe(group);
//   node.publish(group, payload_id);
//
// Control-plane reliability (docs/ROBUSTNESS.md): joins and ripple
// searches run through a ReliableExchange retry ladder — join the advert
// parent, escalate to ripple re-search with widening TTL, then to the
// rendezvous point and its deterministic replicas — so a lost JoinAck
// delays a subscription instead of stranding it.  Tree-edge heartbeats
// (off by default; enable via NodeOptions::heartbeat_interval) detect dead
// parents with the paper's two-miss rule and re-run the same ladder to
// re-attach the orphaned subtree, guarded against cycles by attach-point
// depths carried on JoinAck / RippleHit / HeartbeatAck.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/advertisement.h"
#include "core/reliable_exchange.h"
#include "core/transport.h"
#include "overlay/graph.h"
#include "util/flat_set.h"

namespace groupcast::core {

/// Sentinel depth of a node that is not (or not yet) on a tree.
inline constexpr std::uint32_t kUnknownDepth = 0xFFFFFFFFu;

/// Data-plane reliability on tree edges (docs/ROBUSTNESS.md): per-edge
/// sequence numbering with receiver-driven NACK/retransmit, cumulative
/// acks trimming a bounded per-child send buffer, and sender-side
/// tail-loss probes.  Off by default: group data then rides the legacy
/// fire-and-forget DataMsg path, byte-identical to before.
struct DataReliabilityOptions {
  bool enabled = false;
  /// Delay before a detected gap is NACKed; batches a burst of losses
  /// into one request.  Jittered by a uniform factor in [1, 1 + jitter)
  /// drawn from the node's RNG stream (SRM-style desynchronization).
  sim::SimTime nack_delay = sim::SimTime::millis(40);
  /// Wait after a NACK before the same gap may be NACKed again — the
  /// suppression window while a retransmission is presumed in flight.
  sim::SimTime nack_retry_delay = sim::SimTime::millis(250);
  double nack_jitter = 0.5;
  /// NACK rounds without progress before the receiver skips the gap
  /// (the sender's buffer no longer holds it; waiting forever deadlocks).
  std::size_t max_nack_rounds = 8;
  /// Retransmit-buffer bound per directed edge; the oldest unacked entry
  /// falls off when a send would exceed it.
  std::size_t send_buffer_cap = 128;
  /// Cumulative-ack cadence: one ack per this many in-order deliveries.
  std::size_t ack_every = 8;
  /// Ack-overdue probe: how long the sender waits on unacked data before
  /// re-announcing its next sequence (tail-loss detection), and how many
  /// silent rounds before it gives the receiver up and drops the buffer.
  sim::SimTime probe_delay = sim::SimTime::millis(400);
  std::size_t max_probe_rounds = 6;
  /// Ack-clocked flow control (docs/ROBUSTNESS.md, "Flow control &
  /// adaptive detection"): at most `window` unacked sequences in flight
  /// per directed edge; further sends queue at the sender and drain as
  /// cumulative acks advance, and a blocked edge signals its data source
  /// (the tree parent) to pause via FlowControlMsg.  Off by default: the
  /// legacy fire-into-the-buffer behaviour is then byte-identical.
  bool flow_control = false;
  /// Sender window per directed edge, in sequences (>= 1, <= the
  /// retransmit-buffer cap so windowed data never falls off the buffer).
  std::size_t window = 32;
};

/// Rendezvous replication with leased leadership (docs/ROBUSTNESS.md,
/// "Rendezvous replication & quorum handoff").  The rendezvous point and
/// its `rendezvous_replicas` form a fixed member set holding a replicated
/// epoch log of leadership records: the leaseholder renews its lease to a
/// majority over the ReliableExchange retry ladder, a member whose lease
/// view expires takes over with a monotonically higher epoch once a
/// majority grants it, and divergent logs reconcile by epoch union on
/// partition heal.  Also arms rung 0 of the recovery ladder: parents
/// piggyback their own parent on Join/Heartbeat acks so an orphan can try
/// its grandparent before the advert-parent/ripple/rendezvous ladder.
/// Off by default: no timers, no RNG draws, no messages — byte-identical.
struct ReplicationOptions {
  bool enabled = false;
  /// Replica count beside the rendezvous point (member set = 1 + this;
  /// the default gives a 3-member set with majority 2).
  std::size_t replicas = 2;
  /// Leaseholder renewal period; also the stagger unit for takeover
  /// candidates (member rank * interval) so proposals do not collide.
  sim::SimTime lease_interval = sim::SimTime::millis(500);
  /// How long a member tolerates lease silence before proposing a
  /// takeover.  Must exceed the renewal period by enough retry headroom.
  sim::SimTime lease_duration = sim::SimTime::seconds(2.0);
};

struct NodeOptions {
  /// Scheme + fan-out the node uses when forwarding advertisements.
  AdvertisementOptions advertisement;
  /// TTL of the first ripple search; each retry widens it by one hop.
  std::size_t ripple_ttl = 2;
  /// Per-attempt timeout / backoff / attempt budget of every control-plane
  /// exchange (one exchange per ladder rung).
  RetryPolicy retry;
  /// Rendezvous replicas tried when the rendezvous itself is unresponsive.
  std::size_t rendezvous_replicas = 2;
  /// Tree-edge heartbeat period; zero() disables liveness probing (the
  /// default, so `Simulator::run()` still drains in non-churn tests).
  sim::SimTime heartbeat_interval = sim::SimTime::zero();
  /// Heartbeat intervals without an ack before the parent is declared
  /// dead (the paper's two-miss rule).
  std::size_t missed_heartbeats_to_fail = 2;
  /// Adaptive failure detection (docs/ROBUSTNESS.md, "Flow control &
  /// adaptive detection"): derive the heartbeat-miss threshold and the
  /// NACK cadence from online per-edge loss / repair-time EWMAs instead
  /// of the fixed constants above.  `missed_heartbeats_to_fail` becomes
  /// the floor the estimator widens from.  Off by default — detection
  /// then uses exactly the configured constants, byte-identical.
  bool adaptive = false;
  /// NACK/retransmit reliability for group data on tree edges.
  DataReliabilityOptions reliability;
  /// Rendezvous replication: leased leadership with quorum handoff.
  ReplicationOptions replication;
};

/// Internal payload id of a stream chunk: the top bit marks the chunk
/// namespace (so chunk ids never collide with application payload ids),
/// the stream occupies the upper half and the chunk index the lower.
/// Streams are limited to 31 bits.
inline constexpr std::uint64_t chunk_payload_id(std::uint32_t stream,
                                                std::uint32_t chunk_id) {
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(stream) << 32) | chunk_id;
}

inline constexpr std::uint32_t chunk_stream(std::uint64_t payload_id) {
  return static_cast<std::uint32_t>((payload_id >> 32) & 0x7FFFFFFFu);
}

inline constexpr std::uint32_t chunk_index(std::uint64_t payload_id) {
  return static_cast<std::uint32_t>(payload_id);
}

class GroupCastNode {
 public:
  using DataCallback =
      std::function<void(GroupId, std::uint64_t payload_id,
                         overlay::PeerId origin)>;
  /// Chunk delivery: the ChunkMsg carries stream / chunk_id / deadline /
  /// size; epoch and seq are zeroed (sequencing is edge-local transport
  /// detail, not application-visible).  `hops` holds the arrival depth.
  using ChunkCallback = std::function<void(GroupId, const ChunkMsg&)>;
  using SubscribeCallback = std::function<void(GroupId, bool success)>;

  GroupCastNode(overlay::PeerId self, Transport& transport,
                const overlay::OverlayGraph& graph, NodeOptions options,
                util::Rng& rng);
  ~GroupCastNode();

  GroupCastNode(const GroupCastNode&) = delete;
  GroupCastNode& operator=(const GroupCastNode&) = delete;

  /// Attaches to the transport.  Must be called before any other method.
  void start();
  /// Graceful detach: incoming messages stop being delivered, but messages
  /// this node already sent (e.g. a Leave fired just before stopping)
  /// still reach their peers.
  void stop();
  /// Ungraceful detach: in-flight messages to *and from* this node are
  /// dropped — the form of departure a fault plan injects.
  void crash();
  bool running() const { return running_; }

  overlay::PeerId id() const { return self_; }

  /// Becomes the rendezvous point of `group` and floods the advertisement.
  void create_group(GroupId group);

  /// Subscribes to `group`: reverse-path join if the advertisement is held,
  /// ripple search otherwise, with retries and rung escalation.  Outcome is
  /// reported via on_subscribe_result.
  void subscribe(GroupId group);

  /// Leaves the group.  A leaf detaches from its parent; a relay with
  /// children stays on the tree as a pure forwarder.
  void unsubscribe(GroupId group);

  /// Publishes a payload into the group's tree.  Requires being on the
  /// tree (subscribed, or the rendezvous).
  void publish(GroupId group, std::uint64_t payload_id);

  /// Publishes one stream chunk into the group's tree (streaming
  /// workloads).  Same tree-membership requirement as publish().  The
  /// chunk rides the reliable data plane when reliability is enabled and
  /// the fire-and-forget path otherwise; `deadline` is the absolute sim
  /// time after which delivery counts as late, and `payload_bytes` is the
  /// simulated chunk size (drives bandwidth pacing, no bytes carried).
  void publish_chunk(GroupId group, std::uint32_t stream,
                     std::uint32_t chunk_id, sim::SimTime deadline,
                     std::uint32_t payload_bytes);

  void on_data(DataCallback callback) { data_callback_ = std::move(callback); }
  void on_chunk(ChunkCallback callback) {
    chunk_callback_ = std::move(callback);
  }
  void on_subscribe_result(SubscribeCallback callback) {
    subscribe_callback_ = std::move(callback);
  }

  // ----------------------------------------------------------- inspection
  bool has_advertisement(GroupId group) const;
  bool is_subscribed(GroupId group) const;
  bool on_tree(GroupId group) const;
  /// Tree parent; self for the rendezvous.  Requires on_tree(group).
  overlay::PeerId tree_parent(GroupId group) const;
  std::vector<overlay::PeerId> tree_children(GroupId group) const;
  /// Depth on the tree (root = 0); kUnknownDepth when off the tree.
  std::uint32_t tree_depth(GroupId group) const;
  /// True while a subscribe / recovery ladder has an exchange in flight.
  bool exchange_pending(GroupId group) const;
  /// Payload entries currently held for retransmission on the directed
  /// edge to `peer` (0 when reliability is off or no such edge exists).
  std::size_t send_buffer_depth(GroupId group, overlay::PeerId peer) const;
  /// Payloads queued behind a closed flow-control window on the directed
  /// edge to `peer` (always 0 with flow control off).
  std::size_t pending_depth(GroupId group, overlay::PeerId peer) const;
  /// Heartbeat intervals without an ack before this node's parent on
  /// `group` is declared dead right now: the configured constant, or the
  /// adaptive widening derived from the measured miss rate.
  std::size_t effective_heartbeat_misses(GroupId group) const;
  /// The adaptive widening rule (docs/ROBUSTNESS.md): smallest miss count
  /// k with miss_ewma^k <= the false-positive target, clamped to
  /// [floor_misses, 12].  Pure; exposed for tests.
  static std::size_t adaptive_miss_threshold(double miss_ewma,
                                             std::size_t floor_misses);
  /// Sequence the reliable edge from `peer` expects next (0 when none).
  std::uint64_t expected_seq(GroupId group, overlay::PeerId peer) const;
  /// Estimated resident bytes of this node's protocol state: the object
  /// itself plus per-group dynamic state (children, dedup sets, reliable
  /// edge buffers/stashes).  Container book-keeping is approximated with
  /// a fixed per-entry overhead; feeds the bytes_per_peer gauge.
  std::size_t memory_bytes() const;

  // ------------------------------------------- replication inspection
  /// True if this node is in the group's replication member set (the
  /// rendezvous + its deterministic replicas); always false with
  /// ReplicationOptions off or before the node has heard of the group.
  bool replication_member(GroupId group) const;
  /// True while this member holds (believes it holds) the group lease.
  bool is_leaseholder(GroupId group) const;
  /// Highest committed leadership epoch this member knows (0 = none).
  std::uint32_t lease_epoch(GroupId group) const;
  /// Leader of lease_epoch (kNoPeer when none).
  overlay::PeerId lease_leader(GroupId group) const;
  /// Copy of this member's replication log, sorted by epoch.
  std::vector<LeaseRecord> lease_log(GroupId group) const;
  /// Rung-0 backup attach target learned from Join/Heartbeat acks
  /// (kNoPeer when replication is off or none was offered).
  overlay::PeerId backup_parent(GroupId group) const;

 private:
  /// Ladder rungs, tried in order (skipping inapplicable ones).  kBackup
  /// (the precomputed grandparent, ReplicationOptions only) is rung 0 —
  /// one message instead of a search, targeting sub-heartbeat orphan time.
  enum class Rung : std::uint8_t { kBackup, kAdvertParent, kRipple,
                                   kRendezvous };

  /// One payload held for retransmission (EdgeTx) or parked ahead of a
  /// gap (EdgeRx).
  struct BufferedPayload {
    std::uint64_t seq = 0;
    overlay::PeerId origin = overlay::kNoPeer;
    std::uint32_t hops = 0;  // provenance: tree depth of the copy
    std::uint64_t payload_id = 0;
    /// Stream-chunk descriptor: when `chunk` is set, payload_id encodes
    /// chunk_payload_id(stream, chunk_id) and the copy travels as a
    /// ChunkMsg (deadline + size preserved across buffering, parking,
    /// and retransmission).
    bool chunk = false;
    std::int64_t deadline_us = 0;
    std::uint32_t chunk_bytes = 0;
  };

  /// Sender half of one directed reliable edge.  The buffer holds
  /// contiguous sequences [front.seq, next_seq): pushes append next_seq
  /// and pops come off the front (cumulative ack or capacity), so a
  /// NACKed sequence is found by index, not search.
  struct EdgeTx {
    std::uint32_t epoch = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t cum_acked = 0;
    std::deque<BufferedPayload> buffer;
    sim::TimerHandle probe_timer;
    std::size_t probe_rounds = 0;
    std::uint64_t acked_at_last_probe = 0;
    /// Flow control: payloads waiting for window space (seq assigned at
    /// drain time, so wire sequences stay contiguous), and whether the
    /// receiver asked us to pause (its own downstream edge is blocked).
    std::deque<BufferedPayload> pending;
    bool peer_throttled = false;
    /// Lifetime peak of `buffer` on this directed edge; the
    /// kSendBufferHighWater counter mirrors it via delta increments.
    /// Survives tombstoning (like `epoch`), so re-incarnations only add
    /// new peaks beyond the old one.
    std::size_t high_water = 0;
  };

  /// Receiver half of one directed reliable edge.  `synced` flips on the
  /// first SeqSync from the sender; until then sequenced payloads are
  /// dropped (the sender's probe re-announces, so a lost sync only
  /// delays the edge).  `tail_next` is the sender's last announced
  /// next_seq — the evidence that exposes tail loss as a gap.
  struct EdgeRx {
    std::uint32_t epoch = 0;
    bool synced = false;
    std::uint64_t expected = 0;
    std::uint64_t tail_next = 0;
    std::map<std::uint64_t, BufferedPayload> stash;
    sim::TimerHandle nack_timer;
    std::size_t nack_rounds = 0;
    std::size_t delivered_since_ack = 0;
    /// When the current repair round's first NACK went out; feeds the
    /// NACK-to-repair histogram once in-order progress resumes.
    sim::SimTime last_nack_at;
    /// Adaptive detection (NodeOptions::adaptive): EWMA of the per-arrival
    /// gap indicator (1 = arrived out of order, 0 = in order) and of the
    /// measured NACK-to-repair time.  Purely observational when the flag
    /// is off (never updated, never read).
    double loss_ewma = 0.0;
    double repair_ewma_us = 0.0;
  };

  /// Per-member replication state (ReplicationOptions): the fixed member
  /// set, the committed epoch/leader view, the promise floor for takeover
  /// proposals, and the epoch log that reconciles on heal.  Inert (all
  /// defaults, no timers) unless this node is in the member set.
  struct ReplState {
    bool member = false;
    /// The group's original rendezvous point — the seed the member set is
    /// derived from, carried on every replication message so receivers
    /// can verify membership statelessly.
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

  struct GroupState {
    overlay::PeerId rendezvous = overlay::kNoPeer;
    overlay::PeerId advert_parent = overlay::kNoPeer;  // self at rendezvous
    bool has_advert = false;
    bool subscribed = false;
    bool on_tree = false;
    bool search_pending = false;
    overlay::PeerId tree_parent = overlay::kNoPeer;
    std::uint32_t depth = kUnknownDepth;
    std::vector<overlay::PeerId> children;
    // Flat open-addressing dedup tables: one 8-byte slot per entry
    // instead of a heap node each (util/flat_set.h); these grow with
    // every payload seen, so they dominate a long run's per-peer bytes.
    util::FlatSet64 seen_payloads;
    util::FlatSet64 seen_queries;  // origin<<32 | round

    // --- retry ladder (subscribe + orphan recovery share it) ---
    ReliableExchange::Token exchange = ReliableExchange::kNoToken;
    Rung rung = Rung::kAdvertParent;
    std::uint32_t search_round = 0;
    /// A peer the ladder must not target (the parent just declared dead).
    overlay::PeerId avoid = overlay::kNoPeer;
    /// Orphan cycle guard: only attach under peers of depth <= this.
    /// kUnknownDepth (the default) accepts any attach point.
    std::uint32_t attach_depth_limit = kUnknownDepth;
    bool recovering = false;      // ladder re-attaches an orphaned position
    bool dissolved_once = false;  // second terminal give-up is final
    std::size_t ladder_attempts = 0;  // sends since the ladder started
    /// Joins accepted while not yet on the tree; acked after attaching.
    std::vector<overlay::PeerId> pending_acks;

    // --- tree-edge heartbeats ---
    bool heartbeat_scheduled = false;
    sim::SimTime parent_last_ack;
    std::unordered_map<overlay::PeerId, sim::SimTime> child_last_seen;
    /// Adaptive detection: EWMA of per-window heartbeat-ack misses toward
    /// the current parent (sampled each tick a probe was outstanding),
    /// and the probe bookkeeping that feeds it.  Reset on re-attach.
    double hb_miss_ewma = 0.0;
    sim::SimTime last_hb_probe;
    bool hb_probe_outstanding = false;

    // --- flow control ---
    /// Outbound edges of this group whose window is currently closed
    /// (pending queue non-empty); the 0 -> 1 transition throttles the
    /// upstream source, the return to 0 resumes it.
    std::size_t blocked_edges = 0;
    sim::SimTime throttled_since;

    // --- reliable data plane (ordered so teardown is deterministic) ---
    std::map<overlay::PeerId, EdgeTx> tx_edges;
    std::map<overlay::PeerId, EdgeRx> rx_edges;

    // --- rendezvous replication (ReplicationOptions) ---
    ReplState repl;
    /// Rung-0 attach target: this node's grandparent, as last offered on
    /// a Join/Heartbeat ack (kNoPeer with replication off).
    overlay::PeerId backup_parent = overlay::kNoPeer;
  };

  /// Shared teardown behind stop() / crash().
  void detach(DetachMode mode);

  void handle(const Envelope& envelope);
  void handle_advertise(const Envelope& envelope, const AdvertiseMsg& msg);
  void handle_join(const Envelope& envelope, const JoinMsg& msg);
  void handle_join_ack(const Envelope& envelope, const JoinAckMsg& msg);
  void handle_ripple_query(const Envelope& envelope,
                           const RippleQueryMsg& msg);
  void handle_ripple_hit(const Envelope& envelope, const RippleHitMsg& msg);
  void handle_data(const Envelope& envelope, const DataMsg& msg);
  /// Chunk arrival: epoch 0 is the fire-and-forget path (mirrors
  /// handle_data); epoch >= 1 joins the edge's sequenced stream exactly
  /// like ReliableDataMsg (reliable-edge epochs start at 1).
  void handle_chunk(const Envelope& envelope, const ChunkMsg& msg);
  void handle_leave(const Envelope& envelope, const LeaveMsg& msg);
  void handle_heartbeat(const Envelope& envelope, const HeartbeatMsg& msg);
  void handle_heartbeat_ack(const Envelope& envelope,
                            const HeartbeatAckMsg& msg);
  void handle_parent_lost(const Envelope& envelope, const ParentLostMsg& msg);
  void handle_reliable_data(const Envelope& envelope,
                            const ReliableDataMsg& msg);
  void handle_data_nack(const Envelope& envelope, const DataNackMsg& msg);
  void handle_data_ack(const Envelope& envelope, const DataAckMsg& msg);
  void handle_seq_sync(const Envelope& envelope, const SeqSyncMsg& msg);
  void handle_flow_control(const Envelope& envelope,
                           const FlowControlMsg& msg);
  void handle_lease(const Envelope& envelope, const LeaseMsg& msg);
  void handle_lease_ack(const Envelope& envelope, const LeaseAckMsg& msg);
  void handle_replicate(const Envelope& envelope, const ReplicateMsg& msg);
  void handle_replicate_ack(const Envelope& envelope,
                            const ReplicateAckMsg& msg);
  void handle_handoff(const Envelope& envelope, const HandoffMsg& msg);

  // --- reliable data plane ---
  /// Accepted payload (any path): dedup by (origin, id), deliver to the
  /// application, and forward along the tree away from `via`.  `hops` is
  /// the tree depth this copy traversed (provenance + hop histogram).
  void deliver_payload(GroupId group, GroupState& state, overlay::PeerId via,
                       const BufferedPayload& payload);
  /// Epoch/sequence acceptance shared by ReliableDataMsg and sequenced
  /// ChunkMsg arrivals: duplicate suppression, in-order delivery, gap
  /// parking, and NACK scheduling.
  void accept_sequenced(const Envelope& envelope, GroupId group,
                        GroupState& state, std::uint32_t epoch,
                        std::uint64_t seq, const BufferedPayload& payload);
  /// The wire form of one payload copy: ChunkMsg for chunks (epoch 0 =
  /// fire-and-forget), otherwise DataMsg (epoch 0) or ReliableDataMsg.
  MessageBody payload_msg(GroupId group, std::uint32_t epoch,
                          std::uint64_t seq,
                          const BufferedPayload& payload) const;
  /// Sends one payload toward `to`: sequenced + buffered when reliability
  /// is on, the legacy fire-and-forget DataMsg otherwise.  `hops` is the
  /// depth the copy will have on arrival.
  void send_data(GroupId group, GroupState& state, overlay::PeerId to,
                 const BufferedPayload& payload);
  /// (Re)initializes the outbound edge to `peer`: bumps the epoch, resets
  /// the sequence space, drops the buffer, and announces via SeqSync —
  /// the join-handshake half of reattach re-sync.
  void reset_tx_edge(GroupId group, GroupState& state, overlay::PeerId peer);
  /// Drops both directions of the reliable edge to `peer` (edge torn
  /// down: leave, prune, or recovery), cancelling their timers.
  void drop_edge_state(GroupState& state, overlay::PeerId peer);
  /// Arms the batched/jittered NACK timer for the edge from `peer`
  /// unless one is already pending (the suppression rule).
  void maybe_schedule_nack(GroupId group, overlay::PeerId peer, EdgeRx& rx);
  /// Arms the sender-side ack-overdue probe unless already pending.
  void maybe_schedule_probe(GroupId group, overlay::PeerId peer, EdgeTx& tx);
  void on_nack_timer(GroupId group, overlay::PeerId peer);
  void on_probe_timer(GroupId group, overlay::PeerId peer);
  static void nack_thunk(void* context, std::uint64_t packed);
  static void probe_thunk(void* context, std::uint64_t packed);
  /// Drains in-order payloads from the stash after `expected` advanced;
  /// sends the cumulative ack when the cadence is due.
  void drain_rx(GroupId group, GroupState& state, overlay::PeerId from,
                EdgeRx& rx);

  // --- flow control (all no-ops unless reliability.flow_control) ---
  /// Assigns the next sequence, buffers, and transmits one payload on an
  /// open edge (the tail half of send_data, shared with drain_tx).
  void transmit_now(GroupId group, overlay::PeerId to, EdgeTx& tx,
                    const BufferedPayload& payload);
  /// Parks a payload behind a closed window; the edge's first parked
  /// payload may throttle the upstream source.
  void queue_blocked(GroupId group, GroupState& state, overlay::PeerId to,
                     EdgeTx& tx, const BufferedPayload& payload);
  /// Moves parked payloads onto the wire while the window has room; a
  /// fully drained edge may resume the upstream source.
  void drain_tx(GroupId group, GroupState& state, overlay::PeerId to,
                EdgeTx& tx);
  /// Drops an edge's parked payloads without draining them (edge torn
  /// down or given up): fixes the blocked-edge accounting silently.
  void discard_pending(GroupState& state, EdgeTx& tx);
  /// Sends the throttle (or resume) signal to this node's data source —
  /// the tree parent — if it has one.
  void signal_upstream(GroupId group, GroupState& state, bool throttled);

  // --- adaptive failure detection (NodeOptions::adaptive) ---
  /// EWMA update toward `sample` with the fixed alpha.
  static void ewma_update(double& estimate, double sample);
  /// NACK delay / retry cadence for one rx edge: the configured constants,
  /// shortened (delay) or repair-time-paced (retry) when adaptive.
  sim::SimTime nack_delay_for(const EdgeRx& rx) const;
  sim::SimTime nack_retry_for(const EdgeRx& rx) const;
  /// `base` stretched by a uniform factor in [1, 1 + jitter) drawn from
  /// this node's RNG stream (the reliable_exchange jitter idiom).
  sim::SimTime jittered(sim::SimTime base, double jitter);

  // --- retry ladder ---
  /// Starts (or restarts) the ladder at its first applicable rung.
  void start_ladder(GroupId group);
  /// Opens the reliable exchange for the current rung.
  void run_rung(GroupId group);
  /// Current rung exhausted its attempts: next rung or terminal failure.
  void advance_rung(GroupId group);
  void terminal_failure(GroupId group);
  /// True if the ladder may attach under `target` at `target_depth`.
  bool attach_allowed(const GroupState& state, overlay::PeerId target,
                      std::uint32_t target_depth) const;
  /// Successful attach bookkeeping shared by every ack path.  `backup` is
  /// the grandparent the acking parent offered for rung 0 (kNoPeer when
  /// replication is off or the parent is the root).
  void complete_attach(GroupId group, overlay::PeerId parent,
                       std::uint32_t parent_depth,
                       overlay::PeerId backup = overlay::kNoPeer);

  // --- heartbeats / failure detection ---
  /// Enrols `group` in the shared per-node heartbeat tick (arming the
  /// node's single wheel timer if it isn't already pending).
  void maybe_schedule_heartbeat(GroupId group);
  /// The shared tick: services every enrolled group in group-id order.
  /// One cancellable timer per node replaces one closure per group per
  /// interval (ROADMAP: "batch per-node wheels").
  void node_heartbeat_tick();
  static void heartbeat_thunk(void* context, std::uint64_t);
  void heartbeat_tick(GroupId group);
  /// The parent is gone: become an orphan and re-run the ladder.
  void begin_recovery(GroupId group, overlay::PeerId dead_parent);

  // --- rendezvous replication (all no-ops unless replication.enabled) ---
  /// Derives the member set for (`group`, `rendezvous`) and, if this node
  /// belongs to it, initializes its ReplState (baseline epoch-1 record)
  /// and enrols it in the lease tick.  Returns the member flag.
  bool ensure_repl_member(GroupId group, overlay::PeerId rendezvous);
  /// The grandparent this node offers children as a rung-0 backup:
  /// its own tree parent, or kNoPeer when it is the root / replication
  /// is off (a root's child has no live grandparent to fall back on).
  overlay::PeerId offered_backup(const GroupState& state) const;
  /// Enrols `group` in the shared per-node lease tick (heartbeat-wheel
  /// pattern: one cancellable timer services every replicated group).
  void maybe_schedule_repl_tick(GroupId group);
  void node_repl_tick();
  static void repl_thunk(void* context, std::uint64_t);
  void repl_tick(GroupId group);
  /// Opens a quorum round: a lease renewal / initial-write broadcast, or
  /// a takeover proposal for `epoch` (round_is_handoff).
  void start_repl_round(GroupId group, bool handoff, std::uint32_t epoch);
  /// Records one member's ack for the open round; commits on majority.
  void note_round_ack(GroupId group, overlay::PeerId from,
                      std::uint32_t acked_epoch);
  /// Settles the open round once acks (+ self) reach a majority — also
  /// called right after opening, which is what lets a degenerate
  /// one-member set commit on its own vote.
  void maybe_commit_round(GroupId group);
  /// Majority granted the takeover: adopt the epoch, become leaseholder
  /// and acting tree root, append + push the new record.
  void commit_handoff(GroupId group);
  /// Inserts one record into the epoch log (union merge); a mismatched
  /// leader for an existing epoch counts kEpochConflicts and keeps the
  /// incumbent record.
  void merge_lease_record(ReplState& repl, const LeaseRecord& record);
  /// Adopts a higher committed (epoch, leader) view: steps down if this
  /// node was leaseholder, and rejoins the tree under the new structure
  /// if it was the acting root (the heal reconciliation step).
  void adopt_epoch(GroupId group, std::uint32_t epoch,
                   overlay::PeerId leader);
  /// Pushes this member's full log to `to` when `head`/`size` show the
  /// peer has diverged (anti-entropy sweep).
  void maybe_push_log(GroupId group, overlay::PeerId to,
                      std::uint32_t peer_head, std::uint32_t peer_size);
  /// Makes this node the group's acting tree root (leaving any current
  /// parent, refreshing children) — the tree half of a committed handoff.
  void root_self(GroupId group);

  /// Forwarding subset for an advertisement, per the configured scheme.
  std::vector<overlay::PeerId> select_forward_targets(
      overlay::PeerId exclude);

  /// Memoized SSA selection inputs for one `exclude` value: the filtered
  /// neighbour pool and (for kSsaUtility) the Eq. 1-5 preference vector.
  /// Valid while the graph's neighbour generation for this node matches;
  /// neighbour add/remove/churn invalidates by bumping the generation.
  /// Caching the *computed vectors* (not algebraic denominator updates)
  /// keeps the floating-point results and the RNG stream bit-identical
  /// to the uncached path.
  struct SelectionCacheEntry {
    overlay::PeerId exclude = overlay::kNoPeer;
    std::uint64_t generation = 0;
    std::vector<overlay::PeerId> pool;
    std::vector<double> prefs;  // empty for kNssa / kSsaRandom
  };

  GroupState& state_of(GroupId group) { return groups_[group]; }
  double resource_level();
  sim::SimTime now() const;

  overlay::PeerId self_;
  Transport* transport_;
  const overlay::OverlayGraph* graph_;
  NodeOptions options_;
  util::Rng rng_;
  ReliableExchange exchange_;
  bool running_ = false;
  std::optional<double> cached_resource_level_;
  /// Small (typically 1-2 distinct `exclude` values) linear-probe cache.
  std::vector<SelectionCacheEntry> selection_cache_;
  /// Groups enrolled in the shared heartbeat tick, kept in id order so the
  /// tick services them deterministically.
  std::vector<GroupId> heartbeat_groups_;
  /// Reused tick-servicing buffer (swapped with heartbeat_groups_ each
  /// tick so re-enrolment during the tick is safe without allocating).
  std::vector<GroupId> heartbeat_scratch_;
  sim::TimerHandle heartbeat_timer_;
  /// Quorum rounds run on their own exchange so the retry cadence can
  /// follow the lease timing instead of the control-plane policy.
  /// Constructed only with replication enabled — constructing it splits
  /// the node's RNG stream, which must not happen when the flag is off.
  std::optional<ReliableExchange> repl_exchange_;
  /// Groups enrolled in the shared lease tick (heartbeat-wheel pattern).
  std::vector<GroupId> repl_groups_;
  std::vector<GroupId> repl_scratch_;
  sim::TimerHandle repl_timer_;
  std::unordered_map<GroupId, GroupState> groups_;
  DataCallback data_callback_;
  ChunkCallback chunk_callback_;
  SubscribeCallback subscribe_callback_;
};

}  // namespace groupcast::core
