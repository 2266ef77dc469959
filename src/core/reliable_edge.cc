#include "core/reliable_edge.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

namespace {
std::uint64_t pack_edge(GroupId group, overlay::PeerId peer) {
  return (static_cast<std::uint64_t>(group) << 32) | peer;
}
}  // namespace

ReliableEdge::ReliableEdge(Host& host, overlay::PeerId self,
                           Transport& transport,
                           const DataReliabilityOptions& options,
                           bool adaptive, util::Rng& rng)
    : host_(&host),
      transport_(&transport),
      options_(&options),
      rng_(&rng),
      self_(self),
      adaptive_(adaptive) {
  if (!options.enabled) return;
  GC_REQUIRE_MSG(options.ack_every >= 1, "reliability.ack_every must be >= 1");
  if (options.flow_control) {
    GC_REQUIRE_MSG(options.window >= 1, "reliability.window must be >= 1");
    GC_REQUIRE_MSG(options.window <= kSendBufferCap,
                   "reliability.window must fit within the send buffer");
  }
}

sim::Simulator& ReliableEdge::simulator() const {
  return transport_->simulator_for(self_);
}

sim::SimTime ReliableEdge::now() const { return simulator().now(); }

void ReliableEdge::emit(Links& links, overlay::PeerId to, MessageBody body) {
  transport_->send(self_, to, std::move(body));
  host_->sent(links, to);
}

// ------------------------------------------------------------- sending

MessageBody ReliableEdge::payload_msg(GroupId group, std::uint32_t epoch,
                                      std::uint64_t seq,
                                      const BufferedPayload& payload) {
  if (payload.chunk) {
    return ChunkMsg{group,
                    payload.origin,
                    chunk_stream(payload.payload_id),
                    chunk_index(payload.payload_id),
                    payload.deadline_us,
                    payload.chunk_bytes,
                    epoch,
                    seq,
                    payload.hops};
  }
  if (epoch == 0) {
    return DataMsg{group, payload.origin, payload.payload_id, payload.hops};
  }
  return ReliableDataMsg{group,        payload.origin, payload.payload_id,
                         epoch,        seq,            payload.hops};
}

void ReliableEdge::send(GroupId group, Links& links, overlay::PeerId to,
                        const BufferedPayload& payload) {
  if (!options_->enabled) {
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kPayloadSent, self_, to,
        trace::pack_provenance(payload.origin, payload.payload_id,
                               payload.hops));
    emit(links, to, payload_msg(group, 0, 0, payload));
    return;
  }
  auto it = links.tx_edges.find(to);
  if (options_->flow_control && it != links.tx_edges.end()) {
    // Window gate.  A payload parks when the window is full, the peer
    // asked for quiet, or older payloads are already parked (FIFO: a new
    // payload must never overtake a parked one).  A missing edge is
    // trivially open: nothing is in flight yet and window >= 1.
    auto& tx = it->second;
    if (!tx.pending.empty() || tx.peer_throttled ||
        tx.next_seq - tx.cum_acked >= options_->window) {
      park(group, links, to, tx, payload);
      return;
    }
  }
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadSent,
                       self_, to,
                       trace::pack_provenance(payload.origin,
                                              payload.payload_id,
                                              payload.hops));
  if (it == links.tx_edges.end()) {
    // First payload over this directed edge: open the incarnation (the
    // SeqSync rides ahead of the data on the FIFO pair link).
    reset_tx(group, links, to);
    it = links.tx_edges.find(to);
  }
  transmit(group, links, to, it->second, payload);
}

void ReliableEdge::transmit(GroupId group, Links& links, overlay::PeerId to,
                            EdgeTx& tx, const BufferedPayload& payload) {
  if (tx.buffer.size() >= kSendBufferCap) {
    tx.buffer.pop_front();  // oldest unacked copy falls off
  }
  const std::uint64_t seq = tx.next_seq++;
  tx.buffer.push_back(payload);
  if (tx.buffer.size() > tx.high_water) {
    // Watermark per directed edge: each edge contributes its own lifetime
    // peak to the counter.  (A node-wide maximum used to swallow a second
    // edge's growth until it beat the first edge's record, so the counter
    // under-reported total retransmit-buffer memory.)
    trace::counters().incr(self_, trace::CounterId::kSendBufferHighWater,
                           tx.buffer.size() - tx.high_water);
    tx.high_water = static_cast<std::uint32_t>(tx.buffer.size());
  }
  if (options_->flow_control) {
    trace::histograms().record(trace::HistogramId::kWindowOccupancy,
                               tx.next_seq - tx.cum_acked);
  }
  emit(links, to, payload_msg(group, tx.epoch, seq, payload));
  maybe_schedule_probe(group, to, tx);
}

void ReliableEdge::park(GroupId group, Links& links, overlay::PeerId to,
                        EdgeTx& tx, const BufferedPayload& payload) {
  if (tx.pending.empty()) {
    if (links.blocked_edges++ == 0) {
      // First blocked edge in the group: the throttle episode starts now.
      links.throttled_since = now();
      signal_upstream(group, links, true);
    }
    // Keep an ack clock running even when everything in flight is already
    // acked (pure peer throttle): the probe's re-announcement solicits the
    // ack — or the resume — that reopens this window.
    maybe_schedule_probe(group, to, tx);
  }
  tx.pending.push_back(payload);
  trace::counters().incr(self_, trace::CounterId::kFlowBlocked);
}

void ReliableEdge::drain_tx(GroupId group, Links& links, overlay::PeerId to,
                            EdgeTx& tx) {
  if (!options_->flow_control || tx.pending.empty()) return;
  bool drained = false;
  while (!tx.pending.empty() && !tx.peer_throttled &&
         tx.next_seq - tx.cum_acked < options_->window) {
    const BufferedPayload payload = tx.pending.front();
    tx.pending.pop_front();
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kPayloadSent, self_, to,
        trace::pack_provenance(payload.origin, payload.payload_id,
                               payload.hops));
    transmit(group, links, to, tx, payload);
    drained = true;
  }
  if (drained && tx.pending.empty()) {
    if (--links.blocked_edges == 0) {
      trace::histograms().record(
          trace::HistogramId::kThrottleUs,
          static_cast<std::uint64_t>(
              (now() - links.throttled_since).as_micros()));
      signal_upstream(group, links, false);
    }
  }
}

void ReliableEdge::discard_pending(Links& links, EdgeTx& tx) {
  if (tx.pending.empty()) return;
  tx.pending.clear();
  // No resume signal and no throttle histogram sample: the edge is being
  // torn down mid-episode; the upstream source recovers via its own probe.
  if (links.blocked_edges > 0) --links.blocked_edges;
}

void ReliableEdge::signal_upstream(GroupId group, Links& links,
                                   bool throttled) {
  // The dominant data flow runs root-down, so this node's source is its
  // tree parent.  The root (or an orphan) has no upstream; its publisher
  // observes backpressure through the kFlowBlocked counter instead.
  const overlay::PeerId parent = host_->upstream(links);
  if (parent == overlay::kNoPeer) return;
  if (throttled) {
    trace::counters().incr(self_, trace::CounterId::kFlowThrottles);
  }
  emit(links, parent, FlowControlMsg{group, throttled});
}

// -------------------------------------------------------- edge lifecycle

void ReliableEdge::tombstone(Links& links, EdgeTx& tx) {
  simulator().cancel(tx.probe_timer);
  discard_pending(links, tx);
  const std::uint32_t epoch = tx.epoch;
  const std::uint32_t high_water = tx.high_water;
  tx = EdgeTx{};
  tx.epoch = epoch;
  tx.high_water = high_water;  // lifetime peak, like the epoch
}

void ReliableEdge::reset_tx(GroupId group, Links& links,
                            overlay::PeerId peer) {
  auto& tx = links.tx_edges[peer];
  tombstone(links, tx);
  ++tx.epoch;
  emit(links, peer, SeqSyncMsg{group, tx.epoch, 0, 0});
}

void ReliableEdge::reopen(GroupId group, Links& links, overlay::PeerId peer) {
  if (!options_->enabled) return;
  drop(links, peer);
  reset_tx(group, links, peer);
}

void ReliableEdge::drop(Links& links, overlay::PeerId peer) {
  if (const auto it = links.tx_edges.find(peer); it != links.tx_edges.end()) {
    // Tombstone, not erase: the epoch counter must survive the teardown
    // so the next incarnation of this directed edge gets a number the
    // receiver has never seen.  (Erasing would restart at epoch 1, and a
    // receiver still synced to the old epoch 1 would silently swallow
    // the restarted sequence space as duplicates.)
    tombstone(links, it->second);
  }
  if (const auto it = links.rx_edges.find(peer); it != links.rx_edges.end()) {
    simulator().cancel(it->second.nack_timer);
    links.rx_edges.erase(it);
  }
}

void ReliableEdge::cancel_timers(Links& links) {
  auto& wheel = simulator();
  for (auto& [peer, tx] : links.tx_edges) wheel.cancel(tx.probe_timer);
  for (auto& [peer, rx] : links.rx_edges) wheel.cancel(rx.nack_timer);
}

void ReliableEdge::clear(Links& links) {
  cancel_timers(links);
  links.tx_edges.clear();
  links.rx_edges.clear();
  links.blocked_edges = 0;  // every parked payload died with its edge
}

// -------------------------------------------------------------- arrivals

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const DataMsg& msg) {
  BufferedPayload payload;
  payload.origin = msg.origin;
  payload.payload_id = msg.payload_id;
  payload.hops = msg.hops;
  host_->deliver(msg.group, links, from, payload);
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const ChunkMsg& msg) {
  BufferedPayload payload;
  payload.origin = msg.origin;
  payload.payload_id = chunk_payload_id(msg.stream, msg.chunk_id);
  payload.hops = msg.hops;
  payload.chunk = true;
  payload.deadline_us = msg.deadline_us;
  payload.chunk_bytes = msg.payload_bytes;
  if (msg.epoch == 0) {
    // Fire-and-forget chunk (reliability off at the sender): the DataMsg
    // path, with the chunk descriptor riding along.
    host_->deliver(msg.group, links, from, payload);
    return;
  }
  accept(msg.group, links, from, msg.epoch, msg.seq, payload);
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const ReliableDataMsg& msg) {
  BufferedPayload payload;
  payload.origin = msg.origin;
  payload.payload_id = msg.payload_id;
  payload.hops = msg.hops;
  accept(msg.group, links, from, msg.epoch, msg.seq, payload);
}

void ReliableEdge::accept(GroupId group, Links& links, overlay::PeerId from,
                          std::uint32_t epoch, std::uint64_t seq,
                          const BufferedPayload& payload) {
  auto it = links.rx_edges.find(from);
  if (seq == 0 && (it == links.rx_edges.end() || it->second.epoch < epoch)) {
    // The first copy of a newer incarnation than any we know: its lost
    // handshake SeqSync would have said [0, 0), and the sender cannot
    // have trimmed anything we never acked, so the copy stands in for it.
    it = links.rx_edges.try_emplace(from).first;
    simulator().cancel(it->second.nack_timer);
    it->second = EdgeRx{};
    it->second.epoch = epoch;
    it->second.synced = true;
  }
  if (it == links.rx_edges.end() || !it->second.synced ||
      it->second.epoch != epoch) {
    // No synced incarnation matches (the SeqSync was lost, or this copy
    // belongs to a torn-down incarnation): drop it — the sender's probe
    // re-announces the sync, and resuming mid-stream by guessing the
    // base sequence is exactly the NACK storm the handshake avoids.
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_, from,
        static_cast<std::uint64_t>(trace::DropReason::kStaleEpoch));
    return;
  }
  auto& rx = it->second;
  if (rx.tail_next < seq + 1) rx.tail_next = seq + 1;
  if (seq < rx.expected || rx.stash.count(seq) != 0) {
    // Retransmission raced the original (or a second NACK round): the
    // sequence layer absorbs the duplicate before payload dedup sees it.
    trace::counters().incr(self_, trace::CounterId::kDupsSuppressed);
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_, from,
        static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
    return;
  }
  if (adaptive_) {
    // One loss sample per accepted sequenced arrival: in-order is a hit,
    // a gap means at least one copy ahead of us went missing.
    ewma_update(rx.loss_ewma, seq == rx.expected ? 0.0 : 1.0);
  }
  if (seq == rx.expected) {
    if (rx.nack_rounds > 0) {
      // This in-order arrival closes a NACKed gap: record first-NACK to
      // repair time for the self-tuning transport work.
      const auto repair_us =
          static_cast<std::uint64_t>((now() - rx.last_nack_at).as_micros());
      trace::histograms().record(trace::HistogramId::kNackRepairUs,
                                 repair_us);
      if (adaptive_) {
        ewma_update(rx.repair_ewma_us, static_cast<double>(repair_us));
      }
    }
    ++rx.expected;
    ++rx.delivered_since_ack;
    rx.nack_rounds = 0;  // in-order progress
    host_->deliver(group, links, from, payload);
    drain_rx(group, links, from, rx);
    return;
  }
  // Gap: park the payload and arm the batched NACK.
  rx.stash.emplace(seq, payload);
  maybe_schedule_nack(group, from, rx);
}

void ReliableEdge::drain_rx(GroupId group, Links& links,
                            overlay::PeerId from, EdgeRx& rx) {
  while (!rx.stash.empty() && rx.stash.begin()->first == rx.expected) {
    const BufferedPayload parked = rx.stash.begin()->second;
    rx.stash.erase(rx.stash.begin());
    ++rx.expected;
    ++rx.delivered_since_ack;
    host_->deliver(group, links, from, parked);
  }
  if (rx.delivered_since_ack >= options_->ack_every) {
    rx.delivered_since_ack = 0;
    emit(links, from, DataAckMsg{group, rx.epoch, rx.expected});
  }
  if (!rx.stash.empty() || rx.expected < rx.tail_next) {
    maybe_schedule_nack(group, from, rx);
  }
}

void ReliableEdge::trim(EdgeTx& tx, std::uint64_t cumulative) {
  if (cumulative > tx.cum_acked) tx.cum_acked = cumulative;
  while (!tx.buffer.empty() && tx.front_seq() < tx.cum_acked) {
    tx.buffer.pop_front();
  }
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const DataNackMsg& msg) {
  const auto it = links.tx_edges.find(from);
  if (it == links.tx_edges.end() || it->second.epoch != msg.epoch) {
    return;  // stale incarnation
  }
  auto& tx = it->second;
  // base is an implicit cumulative ack: every sequence below it arrived.
  trim(tx, msg.base_seq);
  if (!tx.buffer.empty()) {
    const std::uint64_t front = tx.front_seq();
    for (std::uint64_t i = 0; i < 64; ++i) {
      if ((msg.missing & (1ull << i)) == 0) continue;
      const std::uint64_t seq = msg.base_seq + i;
      if (seq < front || seq >= tx.next_seq) continue;  // fell off / unsent
      const auto& entry = tx.buffer[static_cast<std::size_t>(seq - front)];
      trace::tracer().emit(
          now().as_micros(), trace::EventKind::kPayloadRetransmit, self_,
          from,
          trace::pack_provenance(entry.origin, entry.payload_id, entry.hops));
      emit(links, from, payload_msg(msg.group, tx.epoch, seq, entry));
      trace::counters().incr(self_, trace::CounterId::kRetransmits);
    }
  }
  // The advanced cumulative ack may have reopened the window; retransmits
  // go first so the receiver's gap is filled before new data lands.
  drain_tx(msg.group, links, from, tx);
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const DataAckMsg& msg) {
  const auto it = links.tx_edges.find(from);
  if (it == links.tx_edges.end() || it->second.epoch != msg.epoch) return;
  auto& tx = it->second;
  if (msg.cumulative > tx.cum_acked) tx.acked_since_probe = true;
  trim(tx, msg.cumulative);
  drain_tx(msg.group, links, from, tx);  // ack-clocked advancement
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const SeqSyncMsg& msg) {
  auto& rx = links.rx_edges[from];
  if (!rx.synced || rx.epoch != msg.epoch) {
    // New incarnation of the inbound edge: adopt its retransmittable
    // window [base, next) wholesale.  This is the receiving half of the
    // reattach re-sync — nothing before base_seq will ever be NACKed,
    // and when the handshake SeqSync itself was lost, aligning to the
    // probe's base (the sender's buffer front) recovers the buffered
    // backlog instead of skipping it.
    simulator().cancel(rx.nack_timer);
    rx = EdgeRx{};
    rx.epoch = msg.epoch;
    rx.synced = true;
    rx.expected = msg.base_seq;
    rx.tail_next = msg.next_seq;
    if (rx.expected < rx.tail_next) {
      maybe_schedule_nack(msg.group, from, rx);
    }
    return;
  }
  if (msg.base_seq > rx.expected) {
    // The sender can no longer retransmit anything below base: deliver
    // whatever of the stash survives (in order) and give up on the rest —
    // NACKing below base would spin forever.
    while (!rx.stash.empty() && rx.stash.begin()->first < msg.base_seq) {
      const BufferedPayload parked = rx.stash.begin()->second;
      rx.stash.erase(rx.stash.begin());
      ++rx.delivered_since_ack;
      host_->deliver(msg.group, links, from, parked);
    }
    rx.expected = msg.base_seq;
    rx.nack_rounds = 0;
    drain_rx(msg.group, links, from, rx);
  }
  if (msg.next_seq > rx.tail_next) rx.tail_next = msg.next_seq;
  if (!rx.stash.empty() || rx.expected < rx.tail_next) {
    maybe_schedule_nack(msg.group, from, rx);
    return;
  }
  // Caught up: the announcement is the sender's ack-overdue probe, so
  // answer with the cumulative ack that lets it trim and go quiet.
  rx.delivered_since_ack = 0;
  emit(links, from, DataAckMsg{msg.group, rx.epoch, rx.expected});
}

void ReliableEdge::handle(Links& links, overlay::PeerId from,
                          const FlowControlMsg& msg) {
  if (!options_->enabled || !options_->flow_control) return;
  const auto it = links.tx_edges.find(from);
  if (it == links.tx_edges.end()) return;
  auto& tx = it->second;
  tx.peer_throttled = msg.throttled;
  if (msg.throttled) {
    // While paused, keep the probe alive: its next round doubles as the
    // resume retry in case the peer's release signal gets lost.
    maybe_schedule_probe(msg.group, from, tx);
  } else {
    drain_tx(msg.group, links, from, tx);
  }
}

// ---------------------------------------------------------------- timers

sim::SimTime ReliableEdge::jittered(sim::SimTime base) {
  const double stretch = 1.0 + kNackJitter * rng_->uniform();
  return sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(base.as_micros()) * stretch));
}

sim::SimTime ReliableEdge::nack_delay_for(const EdgeRx& rx) const {
  const auto base = kNackDelay;
  if (!adaptive_) return base;
  // The higher the measured loss, the more likely a gap is a real hole
  // rather than reordering in flight: shrink the batching delay, floored
  // at a quarter of the configured base.
  const double scale = std::max(0.25, 1.0 - rx.loss_ewma);
  return sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(base.as_micros()) * scale));
}

sim::SimTime ReliableEdge::nack_retry_for(const EdgeRx& rx) const {
  const auto base = kNackRetryDelay;
  if (!adaptive_ || rx.repair_ewma_us <= 0.0) return base;
  // Pace retries by the measured repair time (2x covers the NACK plus
  // retransmission round trip): never faster than the first-NACK delay,
  // never slower than the configured retry constant.
  const auto lo = std::min(nack_delay_for(rx).as_micros(), base.as_micros());
  const auto scaled = static_cast<std::int64_t>(2.0 * rx.repair_ewma_us);
  return sim::SimTime::micros(std::clamp(scaled, lo, base.as_micros()));
}

void ReliableEdge::maybe_schedule_nack(GroupId group, overlay::PeerId peer,
                                       EdgeRx& rx) {
  auto& wheel = simulator();
  if (wheel.timer_pending(rx.nack_timer)) return;  // one in flight
  rx.nack_timer = wheel.schedule_timer(jittered(nack_delay_for(rx)),
                                       &nack_thunk, this,
                                       pack_edge(group, peer));
}

void ReliableEdge::maybe_schedule_probe(GroupId group, overlay::PeerId peer,
                                        EdgeTx& tx) {
  auto& wheel = simulator();
  if (wheel.timer_pending(tx.probe_timer)) return;
  tx.probe_rounds = 0;
  tx.acked_at_last_probe = tx.cum_acked;
  tx.acked_since_probe = false;
  tx.probe_timer = wheel.schedule_timer(jittered(kProbeDelay),
                                        &probe_thunk, this,
                                        pack_edge(group, peer));
}

void ReliableEdge::nack_thunk(void* context, std::uint64_t packed) {
  static_cast<ReliableEdge*>(context)->on_nack_timer(
      static_cast<GroupId>(packed >> 32),
      static_cast<overlay::PeerId>(packed & 0xFFFFFFFFull));
}

void ReliableEdge::probe_thunk(void* context, std::uint64_t packed) {
  static_cast<ReliableEdge*>(context)->on_probe_timer(
      static_cast<GroupId>(packed >> 32),
      static_cast<overlay::PeerId>(packed & 0xFFFFFFFFull));
}

void ReliableEdge::on_nack_timer(GroupId group, overlay::PeerId peer) {
  Links* links = host_->links(group);
  if (links == nullptr) return;
  const auto it = links->rx_edges.find(peer);
  if (it == links->rx_edges.end()) return;
  auto& rx = it->second;
  if (rx.stash.empty() && rx.expected >= rx.tail_next) {
    rx.nack_rounds = 0;  // the gap closed while the timer was pending
    return;
  }
  if (rx.nack_rounds >= kMaxNackRounds) {
    // The sender's buffer no longer holds the gap (or the edge is dead):
    // skip past it instead of deadlocking the in-order pipeline.
    rx.nack_rounds = 0;
    rx.expected = rx.stash.empty() ? rx.tail_next : rx.stash.begin()->first;
    drain_rx(group, *links, peer, rx);
    return;
  }
  // One batched request: base is the first missing sequence, bit i set
  // when base + i is also missing (parked copies punch holes in the mask).
  const std::uint64_t base = rx.expected;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seq = base + i;
    if (seq >= rx.tail_next) break;
    if (rx.stash.find(seq) == rx.stash.end()) mask |= (1ull << i);
  }
  if (mask == 0) {
    rx.nack_rounds = 0;
    return;
  }
  emit(*links, peer, DataNackMsg{group, rx.epoch, base, mask});
  trace::counters().incr(self_, trace::CounterId::kNacksSent);
  if (adaptive_) {
    trace::histograms().record(
        trace::HistogramId::kEstimatedLoss,
        static_cast<std::uint64_t>(std::llround(rx.loss_ewma * 1000.0)));
  }
  if (rx.nack_rounds == 0) rx.last_nack_at = now();  // repair clock starts
  ++rx.nack_rounds;
  // Re-arm on the (longer) retry cadence: no second NACK for this gap
  // while the requested retransmission is presumed in flight.
  rx.nack_timer = simulator().schedule_timer(jittered(nack_retry_for(rx)),
                                             &nack_thunk, this,
                                             pack_edge(group, peer));
}

void ReliableEdge::on_probe_timer(GroupId group, overlay::PeerId peer) {
  Links* links = host_->links(group);
  if (links == nullptr) return;
  const auto it = links->tx_edges.find(peer);
  if (it == links->tx_edges.end()) return;
  auto& tx = it->second;
  if (options_->flow_control && tx.peer_throttled) {
    // The peer's resume may have been lost (or the peer died throttled):
    // a full probe interval of silence is permission to retry.  The peer
    // simply re-throttles if it is still congested.
    tx.peer_throttled = false;
    drain_tx(group, *links, peer, tx);
  }
  if (tx.buffer.empty() && tx.pending.empty()) {
    tx.probe_rounds = 0;  // everything acked: go quiet
    return;
  }
  if (tx.cum_acked > tx.acked_at_last_probe) {
    tx.probe_rounds = 0;  // the receiver is making progress
  } else {
    ++tx.probe_rounds;
  }
  tx.acked_at_last_probe = tx.cum_acked;
  if (tx.acked_since_probe) {
    // The receiver keeps acking: an unacked tail is only the ack
    // cadence's (ack_every) remainder, so stay quiet for a round.  A tail
    // that was really lost stops the acks, and the next round announces
    // it.  (A NACK's base advances cum_acked too, but a receiver asking
    // for repairs is not keeping up.)
    tx.acked_since_probe = false;
    tx.probe_timer = simulator().schedule_timer(jittered(kProbeDelay),
                                                &probe_thunk, this,
                                                pack_edge(group, peer));
    return;
  }
  if (tx.probe_rounds > kMaxProbeRounds) {
    // Rounds of silence: the receiver is gone (heartbeats prune the tree
    // edge separately); stop holding its unacked tail.
    tx.buffer.clear();
    discard_pending(*links, tx);
    tx.probe_rounds = 0;
    return;
  }
  // Tail-loss detection: re-announce [base, next) so a receiver that lost
  // the tail (or the original SeqSync) sees the gap and NACKs it.  base
  // is the oldest sequence still retransmittable — a receiver adopting
  // this announcement after losing the handshake starts there, not at
  // next_seq, so the buffered backlog is recovered instead of skipped.
  const std::uint64_t base = tx.front_seq();
  emit(*links, peer, SeqSyncMsg{group, tx.epoch, base, tx.next_seq});
  tx.probe_timer = simulator().schedule_timer(jittered(kProbeDelay),
                                              &probe_thunk, this,
                                              pack_edge(group, peer));
}

// ------------------------------------------------------------ inspection

std::size_t ReliableEdge::buffer_depth(const Links& links,
                                       overlay::PeerId peer) {
  const auto it = links.tx_edges.find(peer);
  return it != links.tx_edges.end() ? it->second.buffer.size() : 0;
}

std::size_t ReliableEdge::pending_depth(const Links& links,
                                        overlay::PeerId peer) {
  const auto it = links.tx_edges.find(peer);
  return it != links.tx_edges.end() ? it->second.pending.size() : 0;
}

std::uint64_t ReliableEdge::expected_seq(const Links& links,
                                         overlay::PeerId peer) {
  const auto it = links.rx_edges.find(peer);
  return it != links.rx_edges.end() ? it->second.expected : 0;
}

std::size_t ReliableEdge::memory_bytes(const Links& links) {
  std::size_t bytes = 0;
  for (const auto& [peer, tx] : links.tx_edges) {
    bytes += kContainerEntryBytes + sizeof(overlay::PeerId) + sizeof(EdgeTx);
    bytes += (tx.buffer.capacity() + tx.pending.capacity()) *
             sizeof(BufferedPayload);
  }
  for (const auto& [peer, rx] : links.rx_edges) {
    bytes += kContainerEntryBytes + sizeof(overlay::PeerId) + sizeof(EdgeRx);
    bytes += rx.stash.size() * (sizeof(BufferedPayload) + kContainerEntryBytes);
  }
  return bytes;
}

}  // namespace groupcast::core
