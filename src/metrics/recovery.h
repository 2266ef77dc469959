// Churn-and-loss recovery harness over the deployable node runtime.
//
// While run_scenario exercises the engine-level protocols on a quiet
// network, this harness stands up one GroupCastNode per peer, injects a
// deterministic fault plan (ungraceful crashes, graceful leaves, partition
// windows) through core::FaultInjector, and measures how the
// reliable control plane (docs/ROBUSTNESS.md) re-converges:
//
//   * delivery ratio of a post-churn speaking round,
//   * the fraction of surviving subscribers re-attached to the tree,
//   * mean orphan time (in convergence epochs) and epochs to converge,
//   * control-plane overhead of the recovery window,
//   * structural invariant violations (core/invariants.h).
//
// Activated through ScenarioConfig::recovery (enabled = false keeps the
// classic engine path byte-identical), so the whole grid machinery —
// run_scenario_grid's worker pool, seed ladders, counter isolation —
// applies unchanged.  Determinism contract: for a fixed config the result
// is byte-identical whatever GridOptions::jobs is.
#pragma once

#include "metrics/experiment.h"

namespace groupcast::metrics {

/// Runs one node-runtime churn scenario.  Requires
/// `config.recovery.enabled` and a config metrics::validate accepts;
/// run_scenario validates and dispatches here on its own, so callers
/// normally never need this symbol directly.
ScenarioResult run_recovery_scenario(const ScenarioConfig& config);

}  // namespace groupcast::metrics
