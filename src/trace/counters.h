// Per-node monotonic counters.
//
// Every peer accumulates protocol counters (messages sent / received /
// forwarded / dropped, advertisements forwarded, orphan recoveries, ripple
// searches, ...) in a CounterRegistry.  The registry is disabled by
// default: incr() is then a single predictable branch, so the figure-sweep
// benches pay nothing.  When enabled (sim_driver --trace_out, tests), the
// experiment harness snapshots it into ScenarioResult and the snapshot can
// be exported into the trace for cross-run diffing.
//
// Instrumentation sites report to `trace::counters()`, which resolves to
// the calling thread's *active* registry: a per-thread default instance,
// unless a ScopedCounterRegistry guard has injected another one.  The
// parallel experiment harness gives every scenario run its own registry
// this way, so concurrent runs never share mutable counter state and a
// run's snapshot covers exactly that run.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/event.h"

namespace groupcast::trace {

enum class CounterId : std::uint8_t {
  kMessagesSent = 0,
  kMessagesReceived,
  kMessagesForwarded,   // received and passed on (advert / data relay)
  kMessagesDropped,     // duplicates, loss, departed receivers
  kAdvertsForwarded,    // advertisement copies this node transmitted
  kSubscribeAttempts,
  kSubscribeSuccesses,
  kRippleSearches,      // searches this node originated
  kTreeEdges,           // spanning-tree attachments (counted at the child)
  kJoins,               // overlay join protocol completions
  kControlRetries,      // reliable-exchange attempts after the first
  kControlGiveups,      // reliable exchanges that exhausted every attempt
  kOrphansRecovered,    // orphaned nodes that reattached to a tree
  kHeartbeats,          // tree-edge beats this node sent (either way)
  kTimersCoalesced,     // heartbeat timers saved by the shared per-node tick
  kUtilityCacheHits,    // never incremented: SSA selection has no cache;
  kUtilityCacheMisses,  // both stay because the benchmark ledger names them
  kNacksSent,           // data-plane retransmit requests this node issued
  kRetransmits,         // buffered payload copies re-sent on a NACK
  kDupsSuppressed,      // sequence-level duplicate payloads discarded
  kSendBufferHighWater, // sum over directed edges of each edge's lifetime
                        // peak retransmit-buffer depth (delta increments)
  kBytesPerPeer,        // memory-footprint gauge: resident state per peer
                        // (node + edge + timer bytes; set by bench_micro)
  kFlowBlocked,         // payloads parked behind a closed sender window
  kFlowThrottles,       // throttle signals sent upstream (edge went blocked)
  kLeaseRenewals,       // lease renewals the leaseholder committed (majority)
  kLeaseHandoffs,       // leadership takeovers committed by this node
  kEpochConflicts,      // lease records merged with mismatched leaders
  kBackupAttaches,      // orphans reattached via the rung-0 backup parent
  kChunksPublished,     // stream chunks this node originated
  kChunksDelivered,     // chunks accepted before their playback deadline
  kChunksLate,          // chunks accepted after their playback deadline
  kChunksMissed,        // viewer-eligible chunks never played (harness-side)
  kRebufferEvents,      // maximal runs of missed chunks per viewer-stream
  kCount_,
};

inline constexpr std::size_t kCounterIds =
    static_cast<std::size_t>(CounterId::kCount_);

const char* to_string(CounterId id);

/// Point-in-time copy of the registry, safe to keep after reset().
struct CounterSnapshot {
  using Row = std::array<std::uint64_t, kCounterIds>;

  /// Sum over all nodes, per counter.
  Row totals{};
  /// Per-node rows, indexed by PeerId (dense; zero rows included).
  std::vector<Row> per_node;

  std::uint64_t total(CounterId id) const {
    return totals[static_cast<std::size_t>(id)];
  }
  std::uint64_t of(NodeId node, CounterId id) const {
    const auto i = static_cast<std::size_t>(node);
    return i < per_node.size() ? per_node[i][static_cast<std::size_t>(id)]
                               : 0;
  }

  /// The `k` nodes with the largest value of `id` (ties: lower id first),
  /// as (node, value) pairs, descending; zero-valued nodes are skipped.
  std::vector<std::pair<NodeId, std::uint64_t>> top_nodes(
      CounterId id, std::size_t k) const;

  /// Per-counter totals delta (this - base), e.g. run B vs run A.
  std::array<std::int64_t, kCounterIds> totals_delta(
      const CounterSnapshot& base) const;

  /// Element-wise accumulation of `other` into this snapshot; the
  /// per-node table grows to cover the larger of the two.  Integer sums,
  /// so merging is associative and order-independent — repetition
  /// snapshots merged in any order give identical results.
  void merge(const CounterSnapshot& other);

  friend bool operator==(const CounterSnapshot&,
                         const CounterSnapshot&) = default;
};

class CounterRegistry {
 public:
  bool enabled() const { return enabled_; }

  /// Turns counting on and clears previous values.  `node_hint` presizes
  /// the per-node table (it still grows on demand).
  void enable(std::size_t node_hint = 0);
  /// Turns counting off; values are kept until enable() or reset().
  void disable() { enabled_ = false; }

  /// Increments a counter; no-op (one branch) while disabled.  Events with
  /// no attributable node (node == kNoNode) only land in the totals.
  void incr(NodeId node, CounterId id, std::uint64_t n = 1) {
    if (!enabled_) return;
    totals_[static_cast<std::size_t>(id)] += n;
    if (node == kNoNode) return;
    const auto i = static_cast<std::size_t>(node);
    if (i >= per_node_.size()) grow(i + 1);
    per_node_[i][static_cast<std::size_t>(id)] += n;
  }

  std::uint64_t total(CounterId id) const {
    return totals_[static_cast<std::size_t>(id)];
  }
  std::uint64_t of(NodeId node, CounterId id) const {
    const auto i = static_cast<std::size_t>(node);
    return i < per_node_.size() ? per_node_[i][static_cast<std::size_t>(id)]
                                : 0;
  }
  std::size_t node_count() const { return per_node_.size(); }

  CounterSnapshot snapshot() const;
  /// Zeroes every counter; the enabled state is unchanged.
  void reset();

  /// Accumulates a snapshot's values into this registry (no-op while
  /// disabled).  Lets an isolated per-run registry's results be folded
  /// back into an outer registry after the run.
  void merge(const CounterSnapshot& snap);

 private:
  void grow(std::size_t need);

  bool enabled_ = false;
  std::array<std::uint64_t, kCounterIds> totals_{};
  std::vector<CounterSnapshot::Row> per_node_;
};

/// The calling thread's active counter registry (defined in counters.cc;
/// also declared via trace.h).  Defaults to a per-thread instance so
/// concurrent scenario runs never contend; redirect with
/// ScopedCounterRegistry.
CounterRegistry& counters();

/// RAII injection: routes this thread's trace::counters() to `registry`
/// for the guard's lifetime.  Guards nest; destruction restores the
/// previous target.  The guard must be destroyed on the thread that
/// created it.
class ScopedCounterRegistry {
 public:
  explicit ScopedCounterRegistry(CounterRegistry& registry);
  ~ScopedCounterRegistry();
  ScopedCounterRegistry(const ScopedCounterRegistry&) = delete;
  ScopedCounterRegistry& operator=(const ScopedCounterRegistry&) = delete;

 private:
  CounterRegistry* previous_;
};

}  // namespace groupcast::trace
