// Live-streaming workload harness over the deployable node runtime.
//
// While the recovery harness (metrics/recovery.h) measures re-convergence
// under churn, this harness measures *playback*: k publishers emit
// chunked streams with per-chunk playback deadlines into shared or
// per-source dissemination trees, the transport enforces per-peer
// uplink/downlink bandwidth caps (net/bandwidth.h), and an optional flash
// crowd joins mid-stream against the warm tree.  A harness-side player
// model scores every viewer-eligible chunk:
//
//   * chunk miss ratio — eligible chunks not played before their deadline,
//   * startup delay — join (or stream start) to the first played chunk,
//   * rebuffer events — maximal runs of consecutive missed chunks,
//   * chunks played per viewer, and the flash crowd's attach fraction.
//
// Activated through ScenarioConfig::streaming (enabled = false keeps the
// classic engine path byte-identical), so the whole grid machinery —
// run_scenario_grid's worker pool, seed ladders, counter isolation —
// applies unchanged.  Determinism contract: for a fixed config the result
// is byte-identical whatever GridOptions::jobs or config.shards is.
#pragma once

#include "metrics/experiment.h"

namespace groupcast::metrics {

/// Runs one live-streaming scenario.  Requires
/// `config.streaming.enabled` and a config metrics::validate accepts;
/// run_scenario validates and dispatches here on its own, so callers
/// normally never need this symbol directly.
ScenarioResult run_streaming_scenario(const ScenarioConfig& config);

}  // namespace groupcast::metrics
