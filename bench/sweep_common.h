// The paper's Section 4 sweep behind bench_fig11_17: the overlay-size
// sweep and the {overlay} × {announcement scheme} grid (all_combos() is
// shared with bench_delivery_ratio).
//
// Default sweep sizes are reduced so that `for b in build/bench/*; do $b;
// done` completes in minutes; set GROUPCAST_BENCH_SCALE=2 to add the 8k/16k
// points and =4 for the paper's full 32k sweep (plus more repetitions).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "json_report.h"
#include "metrics/experiment.h"
#include "trace/counters.h"

namespace groupcast::bench {

struct SweepPlan {
  std::vector<std::size_t> sizes;
  std::size_t groups = 4;
  std::size_t repetitions = 1;  // distinct topologies (seeds)
  /// Grid worker threads (benches fill this from --jobs); 1 = sequential,
  /// 0 = all hardware threads.  Any value produces identical results.
  std::size_t jobs = 1;
};

inline SweepPlan default_sweep_plan() {
  const double scale = metrics::bench_scale();
  SweepPlan plan;
  plan.sizes = {1000, 2000, 4000};
  if (scale >= 2.0) {
    plan.sizes.push_back(8000);
    plan.sizes.push_back(16000);
    plan.groups = 8;
    plan.repetitions = 3;
  }
  if (scale >= 4.0) {
    plan.sizes.push_back(32000);
    plan.groups = 10;
    plan.repetitions = 10;
  }
  return plan;
}

struct Combo {
  core::OverlayKind overlay;
  core::AnnouncementScheme scheme;
  const char* label;
};

/// The paper's four overlay x scheme combinations, in its plotting order.
inline std::vector<Combo> all_combos() {
  return {
      {core::OverlayKind::kGroupCast, core::AnnouncementScheme::kSsaUtility,
       "GroupCast + SSA"},
      {core::OverlayKind::kGroupCast, core::AnnouncementScheme::kNssa,
       "GroupCast + NSSA"},
      {core::OverlayKind::kRandomPowerLaw,
       core::AnnouncementScheme::kSsaUtility, "random-PL + SSA"},
      {core::OverlayKind::kRandomPowerLaw, core::AnnouncementScheme::kNssa,
       "random-PL + NSSA"},
  };
}

/// Base seed of every sweep point; repetitions ladder from it.
inline constexpr std::uint64_t kSweepSeed = 1000;

inline metrics::ScenarioConfig point_config(std::size_t peer_count,
                                            const Combo& combo,
                                            const SweepPlan& plan) {
  metrics::ScenarioConfig config;
  config.peer_count = peer_count;
  config.overlay = combo.overlay;
  config.scheme = combo.scheme;
  config.groups = plan.groups;
  config.seed = kSweepSeed;
  return config;
}

/// Runs the whole sizes x combos grid (every repetition of every point) on
/// plan.jobs workers and returns the averaged results in row-major input
/// order: result of (sizes[i], combos[j]) at index i * combos.size() + j.
/// Parallelism spans the entire grid, so the pool stays busy even when
/// one large point dominates; output is byte-identical to running each
/// point sequentially through metrics::run_scenario_averaged.
inline std::vector<metrics::ScenarioResult> run_sweep_grid(
    const SweepPlan& plan, const std::vector<Combo>& combos) {
  std::vector<metrics::ScenarioConfig> points;
  points.reserve(plan.sizes.size() * combos.size());
  for (const std::size_t n : plan.sizes) {
    for (const auto& combo : combos) {
      points.push_back(point_config(n, combo, plan));
    }
  }
  metrics::GridOptions options;
  options.jobs = plan.jobs;
  options.repetitions = plan.repetitions;
  options.counters = trace::counters().enabled();
  auto results = metrics::run_scenario_grid(points, options);
  // Under --trace_out the CLI guard exports the ambient registry on exit;
  // fold the per-run counters back so that export matches the sequential
  // harness (no-op when counters are disabled).
  for (const auto& r : results) trace::counters().merge(r.counters);
  return results;
}

/// Writes the BENCH_<name>.json report for a sweep grid: run totals in
/// the root (wall-clock, events fired, peak queue depth) and one cell per
/// (size, combo) grid point.  A no-op when `path` is empty.
inline void write_sweep_json(const std::string& path, const char* bench_name,
                             const std::vector<Combo>& combos,
                             const std::vector<metrics::ScenarioResult>& results,
                             double wall_seconds, std::size_t jobs) {
  if (path.empty()) return;
  JsonReport report(bench_name);
  std::uint64_t events = 0;
  std::uint64_t peak = 0;
  for (const auto& r : results) {
    events += r.events_fired;
    peak = std::max(peak, r.queue_high_water);
  }
  report.root()
      .number("wall_clock_seconds", wall_seconds)
      .integer("events_fired", events)
      .integer("peak_queue_depth", peak)
      .integer("jobs", jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& cell = report.add_cell();
    cell.text("combo", combos[i % combos.size()].label);
    fill_scenario_cell(cell, results[i]);
  }
  report.write_file(path);
}

inline void print_sweep_header(const char* title, const SweepPlan& plan) {
  std::printf("%s\n", title);
  std::printf("(groups/overlay=%zu, topologies=%zu, jobs=%zu; "
              "GROUPCAST_BENCH_SCALE for the full paper sweep)\n",
              plan.groups, plan.repetitions, plan.jobs);
}

}  // namespace groupcast::bench
