#include "core/transport.h"

#include <algorithm>
#include <iterator>
#include <utility>
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

Transport::Transport(std::vector<sim::Simulator*> simulators,
                     sim::ShardSet* shards,
                     const overlay::PeerPopulation& population,
                     std::vector<std::uint32_t> peer_shard,
                     TransportOptions options, util::Rng& rng)
    : simulators_(std::move(simulators)),
      shards_(shards),
      population_(&population),
      options_(options),
      bandwidth_(make_bandwidth_model(options.bandwidth, population)),
      loss_seed_(rng.split()()),
      handlers_(population.size()),
      shard_state_(simulators_.size()),
      peer_shard_(std::move(peer_shard)),
      send_counter_(population.size(), 0),
      crash_(population.size()) {
  GC_REQUIRE(options_.loss_probability >= 0.0 &&
             options_.loss_probability <= 1.0);
  const auto num_shards = simulators_.size();
  GC_REQUIRE(peer_shard_.size() == population.size());
  GC_REQUIRE(std::all_of(peer_shard_.begin(), peer_shard_.end(),
                         [num_shards](std::uint32_t s) {
                           return s < num_shards;
                         }));
  for (auto& state : shard_state_) state.outbox.resize(num_shards);
  for (auto* simulator : simulators_) {
    simulator->set_keyed_handler(&Transport::deliver_thunk, this);
  }
  if (shards_ != nullptr) shards_->set_client(this);
}

Transport::Transport(sim::Simulator& simulator,
                     const overlay::PeerPopulation& population,
                     TransportOptions options, util::Rng& rng)
    : Transport({&simulator}, nullptr, population,
                std::vector<std::uint32_t>(population.size(), 0), options,
                rng) {}

namespace {

std::vector<sim::Simulator*> shard_simulators(sim::ShardSet& shards) {
  std::vector<sim::Simulator*> out;
  for (std::size_t i = 0; i < shards.num_shards(); ++i) {
    out.push_back(&shards.shard(i));
  }
  return out;
}

}  // namespace

Transport::Transport(sim::ShardSet& shards,
                     const overlay::PeerPopulation& population,
                     std::span<const std::uint32_t> peer_shard,
                     TransportOptions options, util::Rng& rng)
    : Transport(shard_simulators(shards), &shards, population,
                {peer_shard.begin(), peer_shard.end()}, options, rng) {}

Transport::~Transport() {
  for (auto* simulator : simulators_) {
    simulator->set_keyed_handler(nullptr, nullptr);
  }
  if (shards_ != nullptr) shards_->set_client(nullptr);
}

MessageTypeStats Transport::type_stats() const {
  MessageTypeStats sum;
  for (const auto& state : shard_state_) sum += state.types;
  return sum;
}

MessageStats Transport::stats() const {
  const MessageTypeStats types = type_stats();
  MessageStats sum;
  for (std::size_t type = 0; type < kMessageTypes; ++type) {
    sum.count(kind_of(type), types.of(type));
  }
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
  std::size_t total = simulators_.capacity() * sizeof(sim::Simulator*) +
                      handlers_.capacity() * sizeof(Handler) +
                      peer_shard_.capacity() * sizeof(std::uint32_t) +
                      send_counter_.capacity() * sizeof(std::uint32_t) +
                      crash_.capacity() * sizeof(CrashMark);
  if (bandwidth_ != nullptr) total += bandwidth_->memory_bytes();
  for (const auto& state : shard_state_) {
    total += sizeof(ShardState) + state.inflight.capacity() * sizeof(InFlight);
    for (const auto& box : state.outbox) {
      total += sizeof(box) + box.capacity() * sizeof(Outbound);
    }
  }
  return total;
}

void Transport::declare_crash(overlay::PeerId peer, sim::SimTime at) {
  GC_REQUIRE(peer < crash_.size());
  crash_[peer] = CrashMark{at.as_micros()};
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
  if (mode == DetachMode::kCrash && simulators_.size() == 1) {
    crash_[peer] =
        CrashMark{simulators_[0]->now().as_micros(), send_counter_[peer]};
  }
}

bool Transport::is_registered(overlay::PeerId peer) const {
  GC_REQUIRE(peer < handlers_.size());
  return handlers_[peer] != nullptr;
}

const char* message_type_name(std::size_t type) {
  // Indexed by MessageBody alternative, in declaration order.
  static constexpr const char* kNames[] = {
      "advertise",     "join",      "join_ack",     "ripple_query",
      "ripple_hit",    "data",      "leave",        "heartbeat",
      "parent_beat",   "parent_lost", "reliable_data", "data_nack",
      "data_ack",      "seq_sync",  "flow_control", "lease",
      "lease_ack",     "replicate", "replicate_ack", "handoff",
      "chunk",
  };
  static_assert(std::size(kNames) == kMessageTypes);
  GC_REQUIRE(type < kMessageTypes);
  return kNames[type];
}

MessageKind Transport::kind_of(std::size_t type) {
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
      kMaintenance,     // ParentBeatMsg
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
  static_assert(std::size(kKinds) == kMessageTypes);
  return kKinds[type];
}

bool Transport::lost(double p, std::uint64_t stream,
                     std::uint64_t counter) const {
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
  const std::uint32_t src = peer_shard_[from];
  ShardState& state = shard_state_[src];
  ++state.sent;
  state.types.count(body.index());
  const std::size_t wire_bytes = encoded_size(body);
  state.bytes_sent += wire_bytes;
  trace::counters().incr(from, trace::CounterId::kMessagesSent);
  // The per-sender counter keys the loss hashes and the delivery order;
  // its top value is reserved for declared crashes (CrashMark::sends).
  const std::uint32_t counter = send_counter_[from]++;
  GC_REQUIRE_MSG(counter < CrashMark{}.sends, "per-sender send counter full");
  const auto now = simulators_[src]->now();
  // Uplink pacing drains the sender's token bucket on *every* send — the
  // frame is serialized onto the access link whether or not the network
  // drops it downstream — so the bucket state is identical no matter
  // where a message later dies.  The buckets need no synchronization:
  // each peer's bucket is only touched here, on the sending peer's own
  // shard, in the deterministic execution order.  Pacing only ever *adds*
  // delay, so the lookahead (a floor under the bare peer latency between
  // shards) still holds.
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
  const std::uint64_t key = (std::uint64_t{from} << 32) | counter;
  InFlight message{to, kNoSlot, now.as_micros(), std::move(body)};
  const auto arrival_us = (now + latency).as_micros();
  const auto dst = peer_shard_[to];
  if (dst == src) {
    // Same shard (one stub domain, or domains placed together, or a
    // one-shard run): straight onto the shard's own simulator.
    schedule(dst, arrival_us, key, std::move(message));
  } else {
    state.outbox[dst].push_back(Outbound{arrival_us, key, std::move(message)});
  }
}

void Transport::schedule(std::size_t shard, std::int64_t arrival_us,
                         std::uint64_t key, InFlight&& message) {
  ShardState& state = shard_state_[shard];
  std::uint32_t slot = state.free_head;
  if (slot != kNoSlot) {
    state.free_head = state.inflight[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(state.inflight.size());
    state.inflight.emplace_back();
  }
  state.inflight[slot] = std::move(message);
  simulators_[shard]->schedule_keyed_at(sim::SimTime::micros(arrival_us),
                                        key,
                                        (std::uint64_t{shard} << 32) | slot);
}

void Transport::deliver_thunk(void* context, std::uint64_t key,
                              std::uint64_t arg) {
  static_cast<Transport*>(context)->deliver(
      static_cast<overlay::PeerId>(key >> 32),
      static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(arg >> 32),
      static_cast<std::uint32_t>(arg));
}

void Transport::deliver(overlay::PeerId from, std::uint32_t counter,
                        std::uint32_t shard, std::uint32_t slot) {
  // Move the message out and recycle the slot before dispatching: the
  // handler may itself send, which allocates slots and can grow the pool.
  ShardState& state = shard_state_[shard];
  InFlight& record = state.inflight[slot];
  const auto to = record.to;
  const auto now_us = simulators_[shard]->now().as_micros();
  // The sender crashed in flight iff it crashed after this send and at or
  // before now; a declared crash follows every send of its instant.
  const CrashMark crash = crash_[from];
  const bool sent_before_crash =
      record.send_us < crash.at_us ||
      (record.send_us == crash.at_us && counter < crash.sends);
  const bool sender_crashed = sent_before_crash && crash.at_us <= now_us;
  MessageBody body = std::move(record.body);
  record.next_free = state.free_head;
  state.free_head = slot;
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

void Transport::merge_inbound(std::size_t shard) {
  for (auto& src : shard_state_) {
    auto& box = src.outbox[shard];
    for (auto& parked : box) {
      schedule(shard, parked.arrival_us, parked.key, std::move(parked.message));
    }
    box.clear();
  }
}

}  // namespace groupcast::core
