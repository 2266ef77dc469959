#include "trace/counters.h"

#include <algorithm>

namespace groupcast::trace {

const char* to_string(CounterId id) {
  switch (id) {
    case CounterId::kMessagesSent:
      return "messages_sent";
    case CounterId::kMessagesReceived:
      return "messages_received";
    case CounterId::kMessagesForwarded:
      return "messages_forwarded";
    case CounterId::kMessagesDropped:
      return "messages_dropped";
    case CounterId::kAdvertsForwarded:
      return "adverts_forwarded";
    case CounterId::kSubscribeAttempts:
      return "subscribe_attempts";
    case CounterId::kSubscribeSuccesses:
      return "subscribe_successes";
    case CounterId::kRippleSearches:
      return "ripple_searches";
    case CounterId::kTreeEdges:
      return "tree_edges";
    case CounterId::kJoins:
      return "joins";
    case CounterId::kControlRetries:
      return "control_retries";
    case CounterId::kControlGiveups:
      return "control_giveups";
    case CounterId::kOrphansRecovered:
      return "orphans_recovered";
    case CounterId::kHeartbeats:
      return "heartbeats";
    case CounterId::kTimersCoalesced:
      return "timers_coalesced";
    case CounterId::kUtilityCacheHits:
      return "utility_cache_hits";
    case CounterId::kUtilityCacheMisses:
      return "utility_cache_misses";
    case CounterId::kNacksSent:
      return "nacks_sent";
    case CounterId::kRetransmits:
      return "retransmits";
    case CounterId::kDupsSuppressed:
      return "dups_suppressed";
    case CounterId::kSendBufferHighWater:
      return "send_buffer_high_water";
    case CounterId::kBytesPerPeer:
      return "bytes_per_peer";
    case CounterId::kFlowBlocked:
      return "flow_blocked";
    case CounterId::kFlowThrottles:
      return "flow_throttles";
    case CounterId::kLeaseRenewals:
      return "lease_renewals";
    case CounterId::kLeaseHandoffs:
      return "lease_handoffs";
    case CounterId::kEpochConflicts:
      return "epoch_conflicts";
    case CounterId::kBackupAttaches:
      return "backup_attaches";
    case CounterId::kChunksPublished:
      return "chunks_published";
    case CounterId::kChunksDelivered:
      return "chunks_delivered";
    case CounterId::kChunksLate:
      return "chunks_late";
    case CounterId::kChunksMissed:
      return "chunks_missed";
    case CounterId::kRebufferEvents:
      return "rebuffer_events";
    case CounterId::kCount_:
      break;
  }
  return "?";
}

std::vector<std::pair<NodeId, std::uint64_t>>
CounterSnapshot::top_nodes(CounterId id, std::size_t k) const {
  std::vector<std::pair<NodeId, std::uint64_t>> ranked;
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const auto v = per_node[i][static_cast<std::size_t>(id)];
    if (v > 0) ranked.emplace_back(static_cast<NodeId>(i), v);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::array<std::int64_t, kCounterIds> CounterSnapshot::totals_delta(
    const CounterSnapshot& base) const {
  std::array<std::int64_t, kCounterIds> delta{};
  for (std::size_t i = 0; i < kCounterIds; ++i) {
    delta[i] = static_cast<std::int64_t>(totals[i]) -
               static_cast<std::int64_t>(base.totals[i]);
  }
  return delta;
}

void CounterSnapshot::merge(const CounterSnapshot& other) {
  for (std::size_t i = 0; i < kCounterIds; ++i) totals[i] += other.totals[i];
  if (per_node.size() < other.per_node.size()) {
    per_node.resize(other.per_node.size());
  }
  for (std::size_t n = 0; n < other.per_node.size(); ++n) {
    for (std::size_t i = 0; i < kCounterIds; ++i) {
      per_node[n][i] += other.per_node[n][i];
    }
  }
}

void CounterRegistry::enable(std::size_t node_hint) {
  reset();
  if (node_hint > 0) per_node_.resize(node_hint);
  enabled_ = true;
}

CounterSnapshot CounterRegistry::snapshot() const {
  CounterSnapshot snap;
  snap.totals = totals_;
  snap.per_node = per_node_;
  return snap;
}

void CounterRegistry::reset() {
  totals_.fill(0);
  per_node_.clear();
}

void CounterRegistry::merge(const CounterSnapshot& snap) {
  if (!enabled_) return;
  for (std::size_t i = 0; i < kCounterIds; ++i) totals_[i] += snap.totals[i];
  if (per_node_.size() < snap.per_node.size()) grow(snap.per_node.size());
  for (std::size_t n = 0; n < snap.per_node.size(); ++n) {
    for (std::size_t i = 0; i < kCounterIds; ++i) {
      per_node_[n][i] += snap.per_node[n][i];
    }
  }
}

void CounterRegistry::grow(std::size_t need) {
  per_node_.resize(std::max(need, per_node_.size() * 2));
}

namespace {
// Per-thread injection point.  A nullptr means "use the thread's default
// instance"; guards swap in per-run registries so concurrent scenario runs
// are fully isolated (no atomics needed anywhere on the incr() hot path).
thread_local CounterRegistry* tl_active_counters = nullptr;
}  // namespace

CounterRegistry& counters() {
  if (tl_active_counters != nullptr) return *tl_active_counters;
  thread_local CounterRegistry default_registry;
  return default_registry;
}

ScopedCounterRegistry::ScopedCounterRegistry(CounterRegistry& registry)
    : previous_(tl_active_counters) {
  tl_active_counters = &registry;
}

ScopedCounterRegistry::~ScopedCounterRegistry() {
  tl_active_counters = previous_;
}

}  // namespace groupcast::trace
