#include "trace/trace.h"

namespace groupcast::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPhaseBegin:
      return "phase_begin";
    case EventKind::kSimEvent:
      return "sim_event";
    case EventKind::kEventLoopLag:
      return "event_loop_lag";
    case EventKind::kAdvertForwarded:
      return "advert_forwarded";
    case EventKind::kSubscriptionAttempt:
      return "subscription_attempt";
    case EventKind::kTreeEdgeAdded:
      return "tree_edge_added";
    case EventKind::kPeerJoin:
      return "peer_join";
    case EventKind::kPeerLeave:
      return "peer_leave";
    case EventKind::kMessageDropped:
      return "message_dropped";
    case EventKind::kRippleSearch:
      return "ripple_search";
    case EventKind::kTreeRepair:
      return "tree_repair";
    case EventKind::kMaintenanceEpoch:
      return "maintenance_epoch";
    case EventKind::kIpTreeBuilt:
      return "ip_tree_built";
    case EventKind::kCounterSnapshot:
      return "counter_snapshot";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kOrphanRecovered:
      return "orphan_recovered";
    case EventKind::kPayloadPublished:
      return "payload_published";
    case EventKind::kPayloadSent:
      return "payload_sent";
    case EventKind::kPayloadRetransmit:
      return "payload_retransmit";
    case EventKind::kPayloadDelivered:
      return "payload_delivered";
    case EventKind::kHistogramBin:
      return "histogram_bin";
    case EventKind::kTimelineFrame:
      return "timeline_frame";
    case EventKind::kLeaseRenewed:
      return "lease_renewed";
    case EventKind::kLeaseHandoff:
      return "lease_handoff";
    case EventKind::kCount_:
      break;
  }
  return "?";
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kBootstrap:
      return "bootstrap";
    case Phase::kAdvertisement:
      return "advertisement";
    case Phase::kSteadyState:
      return "steady-state";
    case Phase::kCount_:
      break;
  }
  return "?";
}

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kDuplicate:
      return "duplicate";
    case DropReason::kLoss:
      return "loss";
    case DropReason::kNoReceiver:
      return "no-receiver";
    case DropReason::kTtlExpired:
      return "ttl-expired";
    case DropReason::kPartitioned:
      return "partitioned";
    case DropReason::kBurstLoss:
      return "burst-loss";
    case DropReason::kOriginDeparted:
      return "origin-departed";
    case DropReason::kStaleEpoch:
      return "stale-epoch";
    case DropReason::kCount_:
      break;
  }
  return "?";
}

Tracer& tracer() {
  // Thread-local so worker-pool scenario runs never share a sink pointer;
  // see the thread-model note in trace.h.  (counters() lives in
  // counters.cc next to its injection guard.)
  thread_local Tracer instance;
  return instance;
}

void emit_counter_snapshot(std::int64_t t_us) {
  auto& t = tracer();
  auto& c = counters();
  if (!t.enabled() || !c.enabled()) return;
  for (std::size_t node = 0; node < c.node_count(); ++node) {
    for (std::size_t id = 0; id < kCounterIds; ++id) {
      const auto v =
          c.of(static_cast<NodeId>(node), static_cast<CounterId>(id));
      if (v == 0) continue;
      t.emit(t_us, EventKind::kCounterSnapshot, static_cast<NodeId>(node),
             static_cast<NodeId>(id), v);
    }
  }
  for (std::size_t id = 0; id < kCounterIds; ++id) {
    const auto v = c.total(static_cast<CounterId>(id));
    if (v == 0) continue;
    t.emit(t_us, EventKind::kCounterSnapshot, kNoNode,
           static_cast<NodeId>(id), v);
  }
}

void emit_histogram_snapshot(std::int64_t t_us) {
  auto& t = tracer();
  auto& h = histograms();
  if (!t.enabled() || !h.enabled()) return;
  for (std::size_t id = 0; id < kHistogramIds; ++id) {
    const auto& data = h.of(static_cast<HistogramId>(id));
    if (data.count == 0) continue;
    for (std::size_t bin = 0; bin < kHistogramBins; ++bin) {
      if (data.bins[bin] == 0) continue;
      t.emit(t_us, EventKind::kHistogramBin, static_cast<NodeId>(id),
             static_cast<NodeId>(bin), data.bins[bin]);
    }
    // Summary slots past the bin range: count, sum, min, max.
    const std::uint64_t summary[4] = {data.count, data.sum, data.min,
                                      data.max};
    for (std::size_t s = 0; s < 4; ++s) {
      t.emit(t_us, EventKind::kHistogramBin, static_cast<NodeId>(id),
             static_cast<NodeId>(kHistogramBins + s), summary[s]);
    }
  }
}

void emit_timeline() {
  auto& t = tracer();
  auto& r = flight_recorder();
  if (!t.enabled() || !r.enabled()) return;
  for (const auto& frame : r.frames()) {
    for (std::size_t id = 0; id < kCounterIds; ++id) {
      if (frame.counters[id] == 0) continue;
      t.emit(frame.t_us, EventKind::kTimelineFrame, kNoNode,
             static_cast<NodeId>(id), frame.counters[id]);
    }
    for (std::size_t id = 0; id < kHistogramIds; ++id) {
      if (frame.samples[id] == 0) continue;
      t.emit(frame.t_us, EventKind::kTimelineFrame, kNoNode,
             static_cast<NodeId>(kCounterIds + id), frame.samples[id]);
    }
  }
}

}  // namespace groupcast::trace
