// Typed protocol events for the observability layer.
//
// Every significant protocol action (an advertisement copy forwarded, a
// subscription attempt resolved, a tree edge grown, a peer joining the
// overlay, a message dropped, the simulator queue reaching a new
// high-water mark) is describable as one fixed-size TraceEvent: a
// sim-timestamp, an event kind, up to two peer ids, and one integer value
// whose meaning depends on the kind.  Events are plain data — recording
// one never allocates, so sinks can sit on the protocol hot paths.
//
// This module sits *below* sim/ and overlay/ in the dependency order (the
// simulator itself is instrumented), so node ids are plain integers here;
// overlay::PeerId converts implicitly and uses the same kNoPeer sentinel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace groupcast::trace {

/// A peer / node id as the trace layer sees it (== overlay::PeerId).
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class EventKind : std::uint8_t {
  /// A run phase starts; `value` is a Phase.  Emitted by the middleware
  /// façade so reports can split costs into bootstrap / advertisement /
  /// steady-state buckets.
  kPhaseBegin = 0,
  /// One simulator event fired; `value` = events still pending.
  kSimEvent,
  /// The simulator queue depth reached a new high-water mark (`value`).
  kEventLoopLag,
  /// `node` forwarded an advertisement copy to `peer`; `value` = remaining
  /// TTL carried by the copy.
  kAdvertForwarded,
  /// `node` finished a subscription attempt against attach point `peer`
  /// (kNoNode when none was found); `value` = 1 on success.
  kSubscriptionAttempt,
  /// Spanning-tree growth: `node` attached under parent `peer`.
  kTreeEdgeAdded,
  /// `node` completed the overlay join protocol; `value` = out links.
  kPeerJoin,
  /// A message from `node` to `peer` was dropped (duplicate suppression,
  /// loss, or a departed receiver); `value` = a DropReason.
  kMessageDropped,
  /// `node` ran a ripple search; `value` = search messages spent.
  kRippleSearch,
  /// An IP multicast reference tree was merged for source router `node`;
  /// `value` = distinct physical links in the tree.
  kIpTreeBuilt,
  /// End-of-run counter export: counter `peer` (a CounterId) of `node`
  /// had `value`.  Lets trace_report diff counters between two runs.
  kCounterSnapshot,
  /// A fault-plan crash fired: `node` crashed (`value` = 0).  Partition
  /// windows are traced through their drops (kMessageDropped, reason
  /// kPartitioned).
  kFaultInjected,
  /// Orphaned node `node` reattached to the tree under new parent `peer`;
  /// `value` = recovery attempts it took.
  kOrphanRecovered,
  /// Origin `node` published a payload into a group; `value` = packed
  /// provenance (see pack_provenance) with hop depth 0.
  kPayloadPublished,
  /// `node` transmitted a payload copy to `peer`; `value` = packed
  /// provenance carrying the hop depth the copy will have on arrival.
  kPayloadSent,
  /// `node` re-sent a buffered payload copy to `peer` on a NACK; `value`
  /// = packed provenance of the buffered copy.
  kPayloadRetransmit,
  /// `node` accepted a payload copy that arrived via `peer` (first
  /// delivery, duplicates are kMessageDropped); `value` = packed
  /// provenance with the realized hop depth.
  kPayloadDelivered,
  /// End-of-run histogram export: histogram `node` (a HistogramId), bin
  /// `peer` — either a value bin [0, kHistogramBins) holding its count, or
  /// a summary slot kHistogramBins + {0:count, 1:sum, 2:min, 3:max}.
  kHistogramBin,
  /// Flight-recorder frame row at sim time `t_us`: series `peer` (a
  /// CounterId, or kCounterIds + a HistogramId for that histogram's
  /// sample count) had cumulative total `value`.
  kTimelineFrame,
  /// Leaseholder `node` committed a lease renewal for its rendezvous
  /// replica set; `value` = the renewed epoch.
  kLeaseRenewed,
  /// `node` took the group lease over from `peer` (the previous leader,
  /// kNoNode when unknown); `value` = the new epoch.
  kLeaseHandoff,
  kCount_,
};

inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::kCount_);

/// Run phases marked by EventKind::kPhaseBegin.
enum class Phase : std::uint8_t {
  kBootstrap = 0,    // overlay construction (joins, host cache)
  kAdvertisement,    // SSA/NSSA announcement + subscriptions per group
  kSteadyState,      // established groups: payloads, churn, maintenance
  kCount_,
};

inline constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount_);

/// Why a message was dropped (EventKind::kMessageDropped `value`).
enum class DropReason : std::uint8_t {
  kDuplicate = 0,   // duplicate-suppression at the receiver
  kLoss,            // lossy transport
  kNoReceiver,      // receiver departed while the message was in flight
  kPartitioned,     // sender and receiver were on opposite partition sides
  kOriginDeparted,  // sender crashed before the scheduled delivery fired
  kStaleEpoch,      // sequenced payload from an out-of-date edge incarnation
  kCount_,
};

/// One recorded observation.  Fixed-size and trivially copyable so ring
/// buffers are just arrays and file sinks never allocate per event.
struct TraceEvent {
  std::int64_t t_us = 0;  // simulated time, microseconds
  EventKind kind = EventKind::kPhaseBegin;
  NodeId node = kNoNode;  // primary actor
  NodeId peer = kNoNode;  // counterpart, if any
  std::uint64_t value = 0;  // kind-specific payload

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

const char* to_string(EventKind kind);
const char* to_string(Phase phase);
const char* to_string(DropReason reason);

/// Message provenance packed into the single TraceEvent value: the
/// publishing origin, the payload id it chose, and the hop depth of this
/// particular copy (tree edges traversed when it arrives).  Payload ids
/// are truncated to 32 bits and hop depths to 8 — both far beyond what a
/// dissemination tree over a bounded overlay produces.
struct Provenance {
  NodeId origin = kNoNode;
  std::uint64_t payload_id = 0;
  std::uint32_t hops = 0;

  friend bool operator==(const Provenance&, const Provenance&) = default;
};

inline constexpr std::uint64_t pack_provenance(NodeId origin,
                                               std::uint64_t payload_id,
                                               std::uint32_t hops) {
  return (static_cast<std::uint64_t>(origin) << 40) |
         (static_cast<std::uint64_t>(hops & 0xFFu) << 32) |
         (payload_id & 0xFFFFFFFFu);
}

inline constexpr Provenance unpack_provenance(std::uint64_t value) {
  Provenance p;
  p.origin = static_cast<NodeId>(value >> 40);
  p.hops = static_cast<std::uint32_t>((value >> 32) & 0xFFu);
  p.payload_id = value & 0xFFFFFFFFu;
  return p;
}

}  // namespace groupcast::trace
