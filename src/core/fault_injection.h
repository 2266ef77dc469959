// Deterministic fault injection for node-runtime experiments.
//
// A FaultInjector binds a sim::FaultPlan to a live deployment: it arms the
// plan's crash events on the victims' shards (invoking a crash hook that stops
// the victim node) and implements the Transport's FaultFilter so partition
// windows act on every send.  All decisions are pure functions of the plan and
// the simulation clock, so a given (seed, plan) pair always yields the
// identical fault sequence.
#pragma once

#include <algorithm>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "core/transport.h"
#include "sim/fault_plan.h"

namespace groupcast::core {

class FaultInjector final : public FaultFilter {
 public:
  /// Called when a scheduled crash fires; must make the victim ungraceful
  /// (typically GroupCastNode::stop + Transport::unregister).
  using CrashHook = std::function<void(overlay::PeerId)>;

  /// Validates the plan and installs itself as `transport`'s fault
  /// filter.  The injector must outlive the transport's use of it; the
  /// destructor uninstalls the filter.
  FaultInjector(sim::FaultPlan plan, Transport& transport);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Declares every crash of the plan to the transport and schedules it
  /// on the victim's shard.  Call once, before running; `on_crash` fires
  /// at each crash instant.
  void arm(CrashHook on_crash);

  /// Peers crashed by the plan so far, sorted by peer id: crashes land
  /// from several shard threads (call only while the shard workers are
  /// parked).
  const std::vector<overlay::PeerId>& crashed() const {
    std::sort(crashed_.begin(), crashed_.end());
    return crashed_;
  }

  // FaultFilter:
  bool blocked(overlay::PeerId from, overlay::PeerId to,
               sim::SimTime now) const override;

 private:
  sim::FaultPlan plan_;
  Transport* transport_;
  /// Per-window membership sets, precomputed for O(1) send-time checks.
  struct WindowSets {
    std::unordered_set<overlay::PeerId> side_a;
    std::unordered_set<overlay::PeerId> side_b;
  };
  std::vector<WindowSets> window_sets_;
  mutable std::vector<overlay::PeerId> crashed_;
  std::mutex crashed_mu_;
  bool armed_ = false;
};

}  // namespace groupcast::core
