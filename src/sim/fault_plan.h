// Deterministic fault schedules for robustness experiments.
//
// A FaultPlan is pure data: node crashes pinned to instants and partition
// windows separating two peer sets.  The recovery harness builds its plans
// programmatically from a seeded RNG.
//
// The plan itself never touches the simulator — injection is done by
// core::FaultInjector, which schedules the crashes and answers the
// transport's per-delivery partition query.  Keeping the schedule as plain
// data is what makes recovery runs reproducible: same seed + same plan
// => the same events in the same order, byte-identical traces.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace groupcast::sim {

/// Node ids as the simulation layer sees them (== overlay::PeerId).
using FaultNodeId = std::uint32_t;

/// One ungraceful node failure at a fixed instant.
struct CrashEvent {
  SimTime at;
  FaultNodeId node = 0;
};

/// A timed two-sided network partition: while now is in [begin, end),
/// every message between a member of `side_a` and a member of `side_b`
/// (either direction) is dropped at send time.  Traffic within one side,
/// or touching peers in neither side, is unaffected.
struct PartitionWindow {
  SimTime begin;
  SimTime end;
  std::vector<FaultNodeId> side_a;
  std::vector<FaultNodeId> side_b;
};

struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<PartitionWindow> partitions;

  /// Throws PreconditionError unless every partition window has
  /// begin < end and two non-empty sides.
  void validate() const;
};

}  // namespace groupcast::sim
