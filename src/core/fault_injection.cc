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
  // Each crash fires on the victim's own shard (the only thread allowed to
  // touch the victim's node state) and is declared to the transport up
  // front, so in-flight suppression needs no cross-shard reads.  crashed_
  // is appended from several shards; the mutex keeps the bookkeeping safe
  // and crashed() exposes it sorted.
  for (const auto& crash : plan_.crashes) {
    const auto victim = static_cast<overlay::PeerId>(crash.node);
    transport_->declare_crash(victim, crash.at);
    transport_->simulator_for(victim).schedule_at(
        crash.at, [this, victim, on_crash] {
          {
            const std::lock_guard<std::mutex> lock(crashed_mu_);
            crashed_.push_back(victim);
          }
          trace::tracer().emit(
              transport_->simulator_for(victim).now().as_micros(),
              trace::EventKind::kFaultInjected, victim, overlay::kNoPeer, 0);
          if (on_crash) on_crash(victim);
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
