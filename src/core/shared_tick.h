// SharedTick — one cancellable wheel timer per node that services every
// enrolled group in group-id order, instead of one closure per group per
// interval (ROADMAP: "batch per-node wheels").  A node's heartbeats run on
// one, its lease renewals on another.
//
// A group enrols for the next round; the owner keeps a per-group flag so
// a group enrols once per round.  On firing, the round's groups move into
// a reused scratch buffer (no per-tick allocation), so servicing a group
// may re-enrol it for the round after.
#pragma once

#include <algorithm>
#include <vector>

#include "core/transport.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace groupcast::core {

class SharedTick {
 public:
  /// Adds `group` in id order and arms the timer unless it is pending.  A
  /// group enrolling between ticks joins the next one.
  void enrol(GroupId group, sim::Simulator& simulator, sim::SimTime period,
             sim::Simulator::TimerFn fn, void* context) {
    groups_.insert(std::upper_bound(groups_.begin(), groups_.end(), group),
                   group);
    if (!simulator.timer_pending(timer_)) {
      timer_ = simulator.schedule_timer(period, fn, context);
    }
  }

  /// Services this round's groups in id order; a round that wakes for
  /// several groups counts the wake-ups it saved as kTimersCoalesced.
  template <typename Service>
  void fire(overlay::PeerId self, Service&& service) {
    scratch_.clear();
    scratch_.swap(groups_);
    if (scratch_.size() > 1) {
      trace::counters().incr(self, trace::CounterId::kTimersCoalesced,
                             scratch_.size() - 1);
    }
    for (const auto group : scratch_) service(group);
  }

  /// Cancels the timer and empties the enrolment, calling `unenrol` for
  /// each group that was waiting for the next round.
  template <typename Unenrol>
  void cancel(sim::Simulator& simulator, Unenrol&& unenrol) {
    simulator.cancel(timer_);
    for (const auto group : groups_) unenrol(group);
    groups_.clear();
  }

 private:
  std::vector<GroupId> groups_;
  std::vector<GroupId> scratch_;
  sim::TimerHandle timer_;
};

}  // namespace groupcast::core
