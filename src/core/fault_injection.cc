#include "core/fault_injection.h"

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

FaultInjector::FaultInjector(sim::FaultPlan plan, Transport& transport)
    : plan_(std::move(plan)), transport_(&transport) {
  plan_.validate();
  window_sets_.reserve(plan_.partitions.size());
  for (const auto& window : plan_.partitions) {
    WindowSets sets;
    for (const auto n : window.side_a) {
      sets.side_a.insert(static_cast<overlay::PeerId>(n));
    }
    for (const auto n : window.side_b) {
      sets.side_b.insert(static_cast<overlay::PeerId>(n));
    }
    window_sets_.push_back(std::move(sets));
  }
  transport_->set_fault_filter(this);
}

FaultInjector::~FaultInjector() { transport_->set_fault_filter(nullptr); }

void FaultInjector::arm(CrashHook on_crash) {
  GC_REQUIRE_MSG(!armed_, "fault plan already armed");
  armed_ = true;
  if (transport_->sharded()) {
    // Each crash fires on the victim's own shard (the only thread allowed
    // to touch the victim's node state) and is pre-declared to the
    // transport so in-flight suppression needs no cross-shard reads.
    // crashed_ is appended from several workers; the mutex keeps the
    // bookkeeping safe and crashed() exposes it sorted.
    for (const auto& crash : plan_.crashes) {
      const auto victim = static_cast<overlay::PeerId>(crash.node);
      transport_->declare_crash(victim, crash.at);
      transport_->simulator_for(victim).schedule_at(
          crash.at, [this, victim, on_crash] {
            {
              const std::lock_guard<std::mutex> lock(crashed_mu_);
              crashed_.push_back(victim);
            }
            if (on_crash) on_crash(victim);
          });
    }
    return;
  }
  auto& simulator = transport_->simulator();
  for (const auto& crash : plan_.crashes) {
    const auto victim = static_cast<overlay::PeerId>(crash.node);
    simulator.schedule_at(crash.at, [this, victim, on_crash] {
      crashed_.push_back(victim);
      trace::tracer().emit(transport_->simulator().now().as_micros(),
                           trace::EventKind::kFaultInjected, victim,
                           overlay::kNoPeer, 0);
      if (on_crash) on_crash(victim);
    });
  }
  // Window edges are traced so recovery timelines can be read off the
  // event stream; the filter itself needs no scheduling.
  for (const auto& window : plan_.partitions) {
    simulator.schedule_at(window.begin, [this] {
      trace::tracer().emit(transport_->simulator().now().as_micros(),
                           trace::EventKind::kFaultInjected,
                           trace::kNoNode, trace::kNoNode, 1);
    });
    simulator.schedule_at(window.end, [this] {
      trace::tracer().emit(transport_->simulator().now().as_micros(),
                           trace::EventKind::kFaultInjected,
                           trace::kNoNode, trace::kNoNode, 2);
    });
  }
}

bool FaultInjector::blocked(overlay::PeerId from, overlay::PeerId to,
                            sim::SimTime now) const {
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    const auto& window = plan_.partitions[i];
    if (now < window.begin || now >= window.end) continue;
    const auto& sets = window_sets_[i];
    if ((sets.side_a.count(from) && sets.side_b.count(to)) ||
        (sets.side_a.count(to) && sets.side_b.count(from))) {
      return true;
    }
  }
  return false;
}

}  // namespace groupcast::core
