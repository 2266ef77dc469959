// ReliableEdge — the reliable data plane of one GroupCastNode.
//
// Group data travels the tree edge by edge.  With
// DataReliabilityOptions::enabled each directed edge is a sequenced
// stream (docs/ROBUSTNESS.md, "Data-plane reliability"): the sender
// numbers payloads per edge incarnation and holds them in a bounded
// retransmit buffer, the receiver parks out-of-order copies, batches its
// retransmit requests into jittered NACK bitmasks and trims the sender
// with cumulative acks, and a sender-side probe re-announces the sequence
// when acks are overdue (tail-loss detection).  Ack-clocked flow control
// parks payloads behind a closed window and throttles the upstream
// source; adaptive detection paces NACKs from per-edge loss and repair
// estimates.  With reliability off, data rides the fire-and-forget
// DataMsg / epoch-0 ChunkMsg path.
//
// The node owns the tree.  Per-group edge state (Links) lives inside the
// node's own per-group tree record, so no message pays a second lookup.
// Three call-backs reach back into the node: delivering an in-order
// payload, naming the tree parent a throttle signal goes to, and hearing
// of every send (edge traffic stands in for the node's heartbeats).  The
// timers also look a group's links up again when they fire.
#pragma once

#include <map>

#include "core/transport.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"
#include "util/rng.h"

namespace groupcast::core {

/// Data-plane reliability on tree edges (docs/ROBUSTNESS.md): per-edge
/// sequence numbering with receiver-driven NACK/retransmit, cumulative
/// acks trimming a bounded per-child send buffer, and sender-side
/// tail-loss probes.  Off by default: group data then rides the legacy
/// fire-and-forget DataMsg path, byte-identical to before.
struct DataReliabilityOptions {
  bool enabled = false;
  /// Cumulative-ack cadence: one ack per this many in-order deliveries.
  std::size_t ack_every = 8;
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

  friend bool operator==(const DataReliabilityOptions&,
                         const DataReliabilityOptions&) = default;
};

/// Delay before a detected gap is NACKed; batches a burst of losses into
/// one request.  Every NACK and probe delay is jittered by a uniform
/// factor in [1, 1 + kNackJitter) drawn from the node's RNG stream
/// (SRM-style desynchronization).
inline constexpr sim::SimTime kNackDelay = sim::SimTime::millis(40);
/// Wait after a NACK before the same gap may be NACKed again — the
/// suppression window while a retransmission is presumed in flight.
inline constexpr sim::SimTime kNackRetryDelay = sim::SimTime::millis(250);
inline constexpr double kNackJitter = 0.5;
/// NACK rounds without progress before the receiver skips the gap (the
/// sender's buffer no longer holds it; waiting forever deadlocks).
inline constexpr std::size_t kMaxNackRounds = 8;
/// Retransmit-buffer bound per directed edge; the oldest unacked entry
/// falls off when a send would exceed it.
inline constexpr std::size_t kSendBufferCap = 128;
/// Ack-overdue probe: how long the sender waits on unacked data before
/// re-announcing its next sequence (tail-loss detection), and how many
/// silent rounds before it gives the receiver up and drops the buffer.
/// A round in which a cumulative ack advanced re-arms the probe without
/// announcing anything: the receiver is keeping up.
inline constexpr sim::SimTime kProbeDelay = sim::SimTime::millis(400);
inline constexpr std::size_t kMaxProbeRounds = 6;

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

/// EWMA step toward `sample` with the fixed alpha 1/8 (roughly an
/// 8-sample memory): the estimator of adaptive detection, shared by the
/// NACK cadence here and the node's heartbeat miss rate.
inline void ewma_update(double& estimate, double sample) {
  constexpr double kEwmaAlpha = 0.125;
  estimate += kEwmaAlpha * (sample - estimate);
}

/// The memory gauges' estimate of a node- or map-based container's
/// book-keeping per entry: about three pointers on mainstream allocators.
inline constexpr std::size_t kContainerEntryBytes = 3 * sizeof(void*);

/// One payload held for retransmission (EdgeTx) or parked ahead of a gap
/// (EdgeRx): 32 bytes.  Its edge sequence is not stored — the retransmit
/// buffer's sequences are contiguous up to the edge's next_seq and the
/// stash is keyed by sequence.
struct BufferedPayload {
  std::uint64_t payload_id = 0;
  /// Stream-chunk descriptor: when `chunk` is set, payload_id encodes
  /// chunk_payload_id(stream, chunk_id) and the copy travels as a
  /// ChunkMsg (deadline + size preserved across buffering, parking,
  /// and retransmission).
  std::int64_t deadline_us = 0;
  overlay::PeerId origin = overlay::kNoPeer;
  std::uint32_t hops = 0;  // provenance: tree depth of the copy
  std::uint32_t chunk_bytes = 0;
  bool chunk = false;
};

/// Sender half of one directed reliable edge.  The buffer holds
/// contiguous sequences [front_seq(), next_seq): pushes append next_seq
/// and pops come off the front (cumulative ack or capacity), so a NACKed
/// sequence is found by index, not search.  Both queues are ring buffers
/// that allocate nothing until their first push, so an idle edge (a
/// tombstone, or a child that never gets data) costs only sizeof(EdgeTx).
struct EdgeTx {
  /// Sequence of the buffer's front entry (next_seq when it is empty).
  std::uint64_t front_seq() const { return next_seq - buffer.size(); }

  std::uint64_t next_seq = 0;
  std::uint64_t cum_acked = 0;
  std::uint64_t acked_at_last_probe = 0;
  util::RingBuffer<BufferedPayload> buffer;
  /// Flow control: payloads waiting for window space (seq assigned at
  /// drain time, so wire sequences stay contiguous).
  util::RingBuffer<BufferedPayload> pending;
  sim::TimerHandle probe_timer;
  std::uint32_t epoch = 0;
  std::uint32_t probe_rounds = 0;
  /// Lifetime peak of `buffer` on this directed edge (at most
  /// kSendBufferCap); the kSendBufferHighWater counter mirrors it via
  /// delta increments.  Survives tombstoning (like `epoch`), so
  /// re-incarnations only add new peaks beyond the old one.
  std::uint32_t high_water = 0;
  /// Whether the receiver asked us to pause (its own downstream edge is
  /// blocked).
  bool peer_throttled = false;
  /// A cumulative ack (not a NACK's base) advanced since the last probe
  /// round: the receiver is keeping up, so the round stays quiet.
  bool acked_since_probe = false;
};

/// Receiver half of one directed reliable edge.  `synced` flips on the
/// first SeqSync from the sender; until then sequenced payloads are
/// dropped (the sender's probe re-announces, so a lost sync only delays
/// the edge).  `tail_next` is the sender's last announced next_seq — the
/// evidence that exposes tail loss as a gap.
struct EdgeRx {
  std::uint32_t epoch = 0;
  bool synced = false;
  std::uint64_t expected = 0;
  std::uint64_t tail_next = 0;
  std::map<std::uint64_t, BufferedPayload> stash;  // by sequence
  sim::TimerHandle nack_timer;
  std::uint32_t nack_rounds = 0;  // at most kMaxNackRounds
  std::uint32_t delivered_since_ack = 0;
  /// When the current repair round's first NACK went out; feeds the
  /// NACK-to-repair histogram once in-order progress resumes.
  sim::SimTime last_nack_at;
  /// Adaptive detection (NodeOptions::adaptive): EWMA of the per-arrival
  /// gap indicator (1 = arrived out of order, 0 = in order) and of the
  /// measured NACK-to-repair time.  Purely observational when the flag is
  /// off (never updated, never read).
  double loss_ewma = 0.0;
  double repair_ewma_us = 0.0;
};

class ReliableEdge {
 public:
  /// Every reliable edge of one group at this node.  The host embeds it
  /// in its per-group tree record (as a base, so a call-back can hand the
  /// record back without a lookup).
  struct Links {
    /// Outbound edges of this group whose window is currently closed
    /// (pending queue non-empty); the 0 -> 1 transition throttles the
    /// upstream source, the return to 0 resumes it.
    std::size_t blocked_edges = 0;
    sim::SimTime throttled_since;
    // Ordered maps, so teardown is deterministic.
    std::map<overlay::PeerId, EdgeTx> tx_edges;
    std::map<overlay::PeerId, EdgeRx> rx_edges;
  };

  /// What the data plane needs from the node that runs it.
  class Host {
   public:
    /// The group's links while the node runs, else nullptr (a timer
    /// firing for a group the node no longer serves).
    virtual Links* links(GroupId group) = 0;
    /// An in-order payload arrived over the edge from `via`: dedup,
    /// deliver to the application, forward along the tree.
    virtual void deliver(GroupId group, Links& links, overlay::PeerId via,
                         const BufferedPayload& payload) = 0;
    /// This node's data source for the group — its tree parent — or
    /// kNoPeer for the root or an orphan.
    virtual overlay::PeerId upstream(const Links& links) const = 0;
    /// The data plane just sent `to` a message of this group: traffic on
    /// a tree edge doubles as its liveness beat.
    virtual void sent(Links& links, overlay::PeerId to) = 0;

   protected:
    ~Host() = default;
  };

  /// Validates `options` when reliability is on.  Jitter draws come from
  /// `rng`, the node's own stream, by reference.
  ReliableEdge(Host& host, overlay::PeerId self, Transport& transport,
               const DataReliabilityOptions& options, bool adaptive,
               util::Rng& rng);

  ReliableEdge(const ReliableEdge&) = delete;
  ReliableEdge& operator=(const ReliableEdge&) = delete;

  /// Sends one payload toward `to`: sequenced, buffered and windowed with
  /// reliability on, the fire-and-forget DataMsg / ChunkMsg otherwise.
  void send(GroupId group, Links& links, overlay::PeerId to,
            const BufferedPayload& payload);
  /// The join handshake, parent side: drops both directions of the edge
  /// to `peer` and opens a fresh outbound incarnation announced by
  /// SeqSync, so the (re)attaching child starts in sync.  No-op with
  /// reliability off.
  void reopen(GroupId group, Links& links, overlay::PeerId peer);
  /// Drops both directions of the edge to `peer` (edge torn down: leave,
  /// prune, or recovery), cancelling their timers.  The outbound half is
  /// tombstoned so its epoch survives into the next incarnation.
  void drop(Links& links, overlay::PeerId peer);
  /// Cancels every edge timer of the group (the node is departing).
  void cancel_timers(Links& links);
  /// Cancels the timers and forgets every edge of the group (the tree
  /// position dissolved).
  void clear(Links& links);

  // Arrivals.  The node passes group data and syncs on only for groups
  // it is on the tree of.
  void handle(Links& links, overlay::PeerId from, const DataMsg& msg);
  /// Epoch 0 is the fire-and-forget path; epoch >= 1 joins the edge's
  /// sequenced stream like ReliableDataMsg (edge epochs start at 1).
  void handle(Links& links, overlay::PeerId from, const ChunkMsg& msg);
  void handle(Links& links, overlay::PeerId from, const ReliableDataMsg& msg);
  void handle(Links& links, overlay::PeerId from, const DataNackMsg& msg);
  void handle(Links& links, overlay::PeerId from, const DataAckMsg& msg);
  void handle(Links& links, overlay::PeerId from, const SeqSyncMsg& msg);
  void handle(Links& links, overlay::PeerId from, const FlowControlMsg& msg);

  // Inspection (0 when no such edge exists).
  static std::size_t buffer_depth(const Links& links, overlay::PeerId peer);
  static std::size_t pending_depth(const Links& links, overlay::PeerId peer);
  static std::uint64_t expected_seq(const Links& links, overlay::PeerId peer);
  /// Estimated bytes of the group's edges, buffers and stashes beyond
  /// sizeof(Links): ring buffers by capacity, map nodes with a fixed
  /// per-entry overhead (feeds the bytes_per_peer gauge).
  static std::size_t memory_bytes(const Links& links);

 private:
  sim::SimTime now() const;
  sim::Simulator& simulator() const;
  /// Every send of the data plane: onto the transport, then reported to
  /// the host.
  void emit(Links& links, overlay::PeerId to, MessageBody body);
  /// The wire form of one payload copy: ChunkMsg for chunks (epoch 0 =
  /// fire-and-forget), otherwise DataMsg (epoch 0) or ReliableDataMsg.
  static MessageBody payload_msg(GroupId group, std::uint32_t epoch,
                                 std::uint64_t seq,
                                 const BufferedPayload& payload);
  /// Epoch/sequence acceptance shared by ReliableDataMsg and sequenced
  /// ChunkMsg arrivals: duplicate suppression, in-order delivery, gap
  /// parking, and NACK scheduling.
  void accept(GroupId group, Links& links, overlay::PeerId from,
              std::uint32_t epoch, std::uint64_t seq,
              const BufferedPayload& payload);
  /// Empties an outbound edge (timer, buffer, parked payloads) but keeps
  /// its epoch and lifetime high-water mark.
  void tombstone(Links& links, EdgeTx& tx);
  /// (Re)initializes the outbound edge to `peer`: bumps the epoch, resets
  /// the sequence space, drops the buffer, and announces via SeqSync.
  void reset_tx(GroupId group, Links& links, overlay::PeerId peer);
  /// Drains in-order payloads from the stash after `expected` advanced;
  /// sends the cumulative ack when the cadence is due.
  void drain_rx(GroupId group, Links& links, overlay::PeerId from,
                EdgeRx& rx);
  /// Trims the buffer below an advanced cumulative ack.
  static void trim(EdgeTx& tx, std::uint64_t cumulative);

  // --- sending and flow control ---
  /// Assigns the next sequence, buffers, and transmits one payload on an
  /// open edge.
  void transmit(GroupId group, Links& links, overlay::PeerId to, EdgeTx& tx,
                const BufferedPayload& payload);
  /// Parks a payload behind a closed window; the edge's first parked
  /// payload may throttle the upstream source.
  void park(GroupId group, Links& links, overlay::PeerId to, EdgeTx& tx,
            const BufferedPayload& payload);
  /// Moves parked payloads onto the wire while the window has room; a
  /// fully drained edge may resume the upstream source.
  void drain_tx(GroupId group, Links& links, overlay::PeerId to, EdgeTx& tx);
  /// Drops an edge's parked payloads without draining them (edge torn
  /// down or given up): fixes the blocked-edge accounting silently.
  static void discard_pending(Links& links, EdgeTx& tx);
  /// Sends the throttle (or resume) signal to the host's upstream peer.
  void signal_upstream(GroupId group, Links& links, bool throttled);

  // --- timers ---
  /// NACK delay / retry cadence for one rx edge: the configured constants,
  /// shortened (delay) or repair-time-paced (retry) when adaptive.
  sim::SimTime nack_delay_for(const EdgeRx& rx) const;
  sim::SimTime nack_retry_for(const EdgeRx& rx) const;
  /// `base` stretched by a uniform factor in [1, 1 + kNackJitter).
  sim::SimTime jittered(sim::SimTime base);
  /// Arms the batched/jittered NACK timer for the edge from `peer` unless
  /// one is already pending (the suppression rule).
  void maybe_schedule_nack(GroupId group, overlay::PeerId peer, EdgeRx& rx);
  /// Arms the sender-side ack-overdue probe unless already pending.
  void maybe_schedule_probe(GroupId group, overlay::PeerId peer, EdgeTx& tx);
  void on_nack_timer(GroupId group, overlay::PeerId peer);
  void on_probe_timer(GroupId group, overlay::PeerId peer);
  static void nack_thunk(void* context, std::uint64_t packed);
  static void probe_thunk(void* context, std::uint64_t packed);

  Host* host_;
  Transport* transport_;
  const DataReliabilityOptions* options_;
  util::Rng* rng_;
  overlay::PeerId self_;
  bool adaptive_;
};

}  // namespace groupcast::core
