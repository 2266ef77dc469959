#include "overlay/maintenance.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::overlay {

MaintenanceProtocol::MaintenanceProtocol(sim::Simulator& simulator,
                                         const PeerPopulation& population,
                                         OverlayGraph& graph,
                                         GroupCastBootstrap& bootstrap,
                                         MaintenanceOptions options)
    : simulator_(&simulator),
      population_(&population),
      graph_(&graph),
      bootstrap_(&bootstrap),
      options_(options),
      current_epoch_(options.epoch) {
  GC_REQUIRE(options_.heartbeat_interval > sim::SimTime::zero());
  GC_REQUIRE(options_.epoch >= options_.heartbeat_interval);
  GC_REQUIRE(options_.min_epoch > sim::SimTime::zero());
  GC_REQUIRE(options_.missed_heartbeats_to_fail >= 1);
}

void MaintenanceProtocol::start(sim::SimTime horizon) {
  simulator_->schedule(current_epoch_,
                       [this, horizon] { run_epoch(horizon); });
}

void MaintenanceProtocol::run_epoch(sim::SimTime horizon) {
  ++stats_.epochs;
  const std::size_t dead_links_before = stats_.dead_links_removed;
  const sim::SimTime now = simulator_->now();
  const sim::SimTime detection_lag =
      options_.heartbeat_interval *
      static_cast<std::int64_t>(options_.missed_heartbeats_to_fail);

  // Analytic heartbeat accounting: every live link exchanges two messages
  // per heartbeat interval.
  const auto beats_per_epoch = static_cast<std::size_t>(
      current_epoch_.as_seconds() / options_.heartbeat_interval.as_seconds());
  stats_.heartbeat_messages += 2 * graph_->edge_count() * beats_per_epoch;

  std::size_t failures_this_epoch = 0;
  for (PeerId p = 0; p < population_->size(); ++p) {
    if (!bootstrap_->is_joined(p)) continue;
    // Detect dead neighbours: a neighbour that is down is declared failed
    // only after `detection_lag` of simulated unresponsiveness.
    for (const PeerId nbr : graph_->neighbors(p)) {
      if (bootstrap_->is_joined(nbr)) continue;
      const auto [it, inserted] = last_seen_down_.try_emplace(nbr, now);
      if (!inserted && now - it->second < detection_lag) continue;
      if (graph_->remove_edge(p, nbr)) ++stats_.dead_links_removed;
      if (graph_->remove_edge(nbr, p)) ++stats_.dead_links_removed;
      bootstrap_->report_failure(nbr);
      ++failures_this_epoch;
    }
  }
  // Repair pass after detection so new links are not drawn from corpses.
  for (PeerId p = 0; p < population_->size(); ++p) {
    if (!bootstrap_->is_joined(p)) continue;
    stats_.links_repaired += bootstrap_->refill(p);
  }

  // Adapt the epoch to the observed churn.
  if (failures_this_epoch > options_.churn_high_watermark) {
    current_epoch_ = std::max(
        options_.min_epoch,
        sim::SimTime::micros(current_epoch_.as_micros() / 2));
  } else {
    current_epoch_ = std::min(
        options_.epoch,
        sim::SimTime::micros(current_epoch_.as_micros() * 3 / 2));
  }
  if (current_epoch_ < options_.heartbeat_interval) {
    current_epoch_ = options_.heartbeat_interval;
  }

  trace::tracer().emit(now.as_micros(), trace::EventKind::kMaintenanceEpoch,
                       trace::kNoNode, trace::kNoNode,
                       stats_.dead_links_removed - dead_links_before);

  if (now + current_epoch_ <= horizon) {
    simulator_->schedule(current_epoch_,
                         [this, horizon] { run_epoch(horizon); });
  }
}

}  // namespace groupcast::overlay
