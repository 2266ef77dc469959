#include "core/transport.h"

#include <algorithm>
#include <iterator>
#include <variant>

#include "core/wire.h"
#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

namespace {

// The per-peer uplink buckets are built once per transport; capacity
// multipliers come from the population's Table 1 capacities.
std::unique_ptr<net::BandwidthModel> make_bandwidth_model(
    const net::BandwidthCaps& caps, const overlay::PeerPopulation& population) {
  if (!caps.any()) return nullptr;
  std::vector<double> capacities;
  capacities.reserve(population.size());
  for (const auto& peer : population.peers()) {
    capacities.push_back(peer.capacity);
  }
  return std::make_unique<net::BandwidthModel>(caps, capacities);
}

}  // namespace

Transport::Transport(sim::Simulator* simulator, sim::ShardSet* shards,
                     const overlay::PeerPopulation& population,
                     TransportOptions options, util::Rng& rng)
    : simulator_(simulator),
      population_(&population),
      options_(options),
      bandwidth_(make_bandwidth_model(options.bandwidth, population)),
      rng_(rng.split()),
      handlers_(population.size()),
      generation_(population.size(), 0),
      shard_state_(shards != nullptr ? shards->num_shards() : 1),
      shards_(shards) {
  GC_REQUIRE(options_.loss_probability >= 0.0 &&
             options_.loss_probability <= 1.0);
}

Transport::Transport(sim::Simulator& simulator,
                     const overlay::PeerPopulation& population,
                     TransportOptions options, util::Rng& rng)
    : Transport(&simulator, nullptr, population, options, rng) {}

Transport::Transport(sim::ShardSet& shards,
                     const overlay::PeerPopulation& population,
                     TransportOptions options, util::Rng& rng)
    : Transport(nullptr, &shards, population, options, rng) {
  loss_seed_ = rng_();
  const auto num_shards = shards.num_shards();
  peer_shard_.resize(population.size());
  send_counter_.resize(population.size(), 0);
  crash_at_us_.resize(population.size(), -1);
  for (overlay::PeerId p = 0; p < population.size(); ++p) {
    // Shard by access router: every peer pair split across shards is then
    // separated by at least one inter-router hop, which is what lets the
    // lookahead window include the router-to-router latency floor instead
    // of just two access latencies.
    std::uint64_t state = population.info(p).router + 1;
    util::splitmix64(state);
    peer_shard_[p] = static_cast<std::uint32_t>(
        util::splitmix64(state) % num_shards);
  }
  for (auto& state : shard_state_) state.outbox.resize(num_shards);
  shards.set_client(this);
}

Transport::~Transport() {
  if (shards_ != nullptr) shards_->set_client(nullptr);
}

MessageStats Transport::stats() const {
  MessageStats sum;
  for (const auto& state : shard_state_) sum += state.stats;
  return sum;
}

std::size_t Transport::total(std::size_t ShardState::*field) const {
  std::size_t sum = 0;
  for (const auto& state : shard_state_) sum += state.*field;
  return sum;
}

std::size_t Transport::messages_sent() const {
  return total(&ShardState::sent);
}

std::size_t Transport::messages_lost() const {
  return total(&ShardState::lost);
}

std::size_t Transport::bytes_sent() const {
  return total(&ShardState::bytes_sent);
}

std::size_t Transport::memory_bytes() const {
  std::size_t total = handlers_.capacity() * sizeof(Handler) +
                      generation_.capacity() * sizeof(std::uint64_t) +
                      inflight_.capacity() * sizeof(InFlight);
  if (bandwidth_ != nullptr) total += bandwidth_->memory_bytes();
  total += peer_shard_.capacity() * sizeof(std::uint32_t) +
           send_counter_.capacity() * sizeof(std::uint64_t) +
           crash_at_us_.capacity() * sizeof(std::int64_t);
  for (const auto& state : shard_state_) {
    total += sizeof(ShardState) +
             state.arrivals.capacity() * sizeof(ShardRecord);
    for (const auto& box : state.outbox) {
      total += box.capacity() * sizeof(ShardRecord);
    }
  }
  return total;
}

void Transport::declare_crash(overlay::PeerId peer, sim::SimTime at) {
  GC_REQUIRE(shards_ != nullptr && peer < crash_at_us_.size());
  crash_at_us_[peer] = at.as_micros();
}

void Transport::register_node(overlay::PeerId peer, Handler handler) {
  GC_REQUIRE(peer < handlers_.size());
  GC_REQUIRE(handler != nullptr);
  GC_REQUIRE_MSG(handlers_[peer] == nullptr, "peer already registered");
  handlers_[peer] = std::move(handler);
}

void Transport::unregister_node(overlay::PeerId peer, DetachMode mode) {
  GC_REQUIRE(peer < handlers_.size());
  handlers_[peer] = nullptr;
  if (mode == DetachMode::kCrash) {
    ++generation_[peer];  // kills this peer's in-flight sends
  }
}

bool Transport::is_registered(overlay::PeerId peer) const {
  GC_REQUIRE(peer < handlers_.size());
  return handlers_[peer] != nullptr;
}

MessageKind Transport::kind_of(const MessageBody& body) {
  using enum MessageKind;
  // Indexed by MessageBody alternative, in declaration order.
  static constexpr MessageKind kKinds[] = {
      kAdvertisement,   // AdvertiseMsg
      kSubscribeJoin,   // JoinMsg
      kSubscribeAck,    // JoinAckMsg
      kRippleSearch,    // RippleQueryMsg
      kRippleResponse,  // RippleHitMsg
      kPayload,         // DataMsg
      kSubscribeJoin,   // LeaveMsg
      kMaintenance,     // HeartbeatMsg
      kMaintenance,     // HeartbeatAckMsg
      kMaintenance,     // ParentLostMsg
      kPayload,         // ReliableDataMsg
      kMaintenance,     // DataNackMsg
      kMaintenance,     // DataAckMsg
      kMaintenance,     // SeqSyncMsg
      kMaintenance,     // FlowControlMsg
      kMaintenance,     // LeaseMsg
      kMaintenance,     // LeaseAckMsg
      kMaintenance,     // ReplicateMsg
      kMaintenance,     // ReplicateAckMsg
      kMaintenance,     // HandoffMsg
      kPayload,         // ChunkMsg
  };
  static_assert(std::size(kKinds) == std::variant_size_v<MessageBody>);
  return kKinds[body.index()];
}

bool Transport::lost(double p, std::uint64_t stream, std::uint64_t counter) {
  if (shards_ == nullptr) return rng_.chance(p);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::uint64_t state = loss_seed_ ^ (stream * 0x9E3779B97F4A7C15ULL);
  util::splitmix64(state);
  state += counter;
  const std::uint64_t bits = util::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53 < p;
}

void Transport::send(overlay::PeerId from, overlay::PeerId to,
                     MessageBody body) {
  GC_REQUIRE(from < handlers_.size() && to < handlers_.size());
  GC_REQUIRE_MSG(from != to, "loopback sends are a protocol bug");
  const bool sharded = shards_ != nullptr;
  const std::uint32_t src = sharded ? peer_shard_[from] : 0;
  ShardState& state = shard_state_[src];
  ++state.sent;
  state.stats.count(kind_of(body));
  const std::size_t wire_bytes = encoded_size(body);
  state.bytes_sent += wire_bytes;
  trace::counters().incr(from, trace::CounterId::kMessagesSent);
  // The per-sender counter keys the sharded loss hashes and arrival order.
  const std::uint64_t counter = sharded ? send_counter_[from]++ : 0;
  const auto now = simulator_for(from).now();
  // Uplink pacing drains the sender's token bucket on *every* send — the
  // frame is serialized onto the access link whether or not the network
  // drops it downstream — so the bucket state is identical no matter
  // where a message later dies.  Sharded, the buckets need no
  // synchronization: each peer's bucket is only touched here, on the
  // sending peer's own shard, in the deterministic (arrival, src, counter)
  // execution order.  Pacing only ever *adds* delay, so the conservative
  // lookahead bound still holds.
  std::int64_t pacing_us = 0;
  if (bandwidth_ != nullptr) {
    pacing_us = bandwidth_->acquire_uplink(from, wire_bytes, now.as_micros());
  }
  const auto drop = [&](trace::DropReason reason) {
    ++state.lost;
    trace::counters().incr(from, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(now.as_micros(), trace::EventKind::kMessageDropped,
                         from, to, static_cast<std::uint64_t>(reason));
  };
  if (fault_filter_ != nullptr && fault_filter_->blocked(from, to, now)) {
    drop(trace::DropReason::kPartitioned);
    return;
  }
  if (lost(options_.loss_probability, from * 2, counter)) {
    drop(trace::DropReason::kLoss);
    return;
  }
  auto latency = sim::SimTime::millis(population_->latency_ms(from, to));
  if (bandwidth_ != nullptr) {
    latency += sim::SimTime::micros(pacing_us +
                                    bandwidth_->downlink_us(to, wire_bytes));
  }
  // Only messages that survived the loss/fault gauntlet count as edge
  // deliveries; the histogram sees the latency they will experience.
  trace::histograms().record(trace::HistogramId::kEdgeDelayUs,
                             static_cast<std::uint64_t>(latency.as_micros()));
  if (!sharded) {
    const auto slot = allocate_slot();
    InFlight& record = inflight_[slot];
    record.from = from;
    record.to = to;
    record.sent_in = generation_[from];
    record.body = std::move(body);
    simulator_->schedule_timer(latency, &Transport::deliver_thunk, this, slot);
    return;
  }
  ShardRecord record{now.as_micros(), (now + latency).as_micros(), counter,
                     from, to, std::move(body)};
  const auto dst = peer_shard_[to];
  if (dst == src) {
    // Same shard (same access router): deliver through the shard's own
    // arrival queue, which keeps delivery order a pure function of
    // (arrival, src, counter) whatever the shard count.
    state.arrivals.push_back(std::move(record));
    std::push_heap(state.arrivals.begin(), state.arrivals.end(),
                   LaterRecord{});
  } else {
    state.outbox[dst].push_back(std::move(record));
  }
}

void Transport::deliver_thunk(void* context, std::uint64_t slot) {
  static_cast<Transport*>(context)->deliver(static_cast<std::uint32_t>(slot));
}

std::uint32_t Transport::allocate_slot() {
  if (free_head_ != kNoSlot) {
    const auto slot = free_head_;
    free_head_ = inflight_[slot].next_free;
    return slot;
  }
  inflight_.emplace_back();
  return static_cast<std::uint32_t>(inflight_.size() - 1);
}

void Transport::deliver(std::uint32_t slot) {
  // Move the record out and recycle the slot before dispatching: the
  // handler may itself send, which allocates slots and can grow the pool.
  InFlight& record = inflight_[slot];
  const auto from = record.from;
  const auto to = record.to;
  const bool sender_crashed = generation_[from] != record.sent_in;
  MessageBody body = std::move(record.body);
  record.next_free = free_head_;
  free_head_ = slot;
  dispatch(simulator_->now().as_micros(), from, to, sender_crashed,
           std::move(body));
}

void Transport::dispatch(std::int64_t now_us, overlay::PeerId from,
                         overlay::PeerId to, bool sender_crashed,
                         MessageBody&& body) {
  if (sender_crashed) {
    trace::counters().incr(from, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now_us, trace::EventKind::kMessageDropped, from, to,
        static_cast<std::uint64_t>(trace::DropReason::kOriginDeparted));
    return;
  }
  const auto& handler = handlers_[to];
  if (handler == nullptr) {  // receiver departed in flight
    trace::counters().incr(to, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now_us, trace::EventKind::kMessageDropped, to, from,
        static_cast<std::uint64_t>(trace::DropReason::kNoReceiver));
    return;
  }
  trace::counters().incr(to, trace::CounterId::kMessagesReceived);
  handler(Envelope{from, to, std::move(body)});
}

// ------------------------------------------------------------- sharded mode

void Transport::merge_inbound(std::size_t shard) {
  ShardState& state = shard_state_[shard];
  for (auto& src : shard_state_) {
    auto& box = src.outbox[shard];
    for (auto& record : box) {
      state.arrivals.push_back(std::move(record));
      std::push_heap(state.arrivals.begin(), state.arrivals.end(),
                     LaterRecord{});
    }
    box.clear();
  }
}

std::int64_t Transport::next_arrival_us(std::size_t shard) {
  const ShardState& state = shard_state_[shard];
  return state.arrivals.empty() ? -1 : state.arrivals.front().arrival_us;
}

std::size_t Transport::deliver_arrivals_at(std::size_t shard,
                                           std::int64_t t_us) {
  ShardState& state = shard_state_[shard];
  std::size_t fired = 0;
  while (!state.arrivals.empty() && state.arrivals.front().arrival_us <= t_us) {
    std::pop_heap(state.arrivals.begin(), state.arrivals.end(), LaterRecord{});
    ShardRecord record = std::move(state.arrivals.back());
    state.arrivals.pop_back();
    ++fired;
    // The sender crashed in flight iff its declared crash falls in [send,
    // arrival]; mirrors the single-wheel generation check without a
    // cross-thread read.
    const auto crash_us = crash_at_us_[record.from];
    dispatch(shards_->shard(shard).now().as_micros(), record.from, record.to,
             crash_us >= record.send_us && crash_us <= record.arrival_us,
             std::move(record.body));
  }
  return fired;
}

}  // namespace groupcast::core
