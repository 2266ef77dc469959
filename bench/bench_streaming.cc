// Live-streaming workload sweep: chunked playback over the dissemination
// tree under loss, bandwidth caps, multi-source layouts, and a flash
// crowd (docs/EXPERIMENTS.md, "Streaming workloads").
//
// The grid crosses the transport's steady-state loss with the chunk
// reliability rider, then adds per-peer uplink/downlink token-bucket caps
// (net/bandwidth.h), a k-publisher comparison of the shared-tree vs
// per-source-tree layouts, and a flash-crowd cell where a crowd of cold
// peers joins mid-stream against the warm tree.  Reported per point:
// chunk miss ratio with its seed-to-seed stddev, startup delay, rebuffer
// events per viewer, chunks played, and the chunk/NACK counters.
//
// --jobs=N parallelizes over the grid via metrics::run_scenario_grid;
// results are byte-identical for every job count.  --shards=N runs each
// cell on the sharded event kernel (byte-identical at every N, 1
// included); without the flag the runtime chooses the count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "json_report.h"
#include "metrics/experiment.h"
#include "trace/cli.h"
#include "trace/counters.h"

namespace {

using namespace groupcast;

metrics::ScenarioConfig streaming_point(std::size_t peers, double loss,
                                        bool reliable_data) {
  metrics::ScenarioConfig config;
  config.peer_count = peers;
  config.groups = 1;
  config.seed = 9200;
  config.streaming.enabled = true;
  config.streaming.loss_probability = loss;
  config.streaming.reliable_data = reliable_data;
  config.streaming.chunks = 30;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const trace::CliTracing tracing(argc, argv,
                                  {.jobs = true, .shards = true});
  const std::size_t shards = tracing.shards();
  const double scale = metrics::bench_scale();
  // Scale ladder: 400 -> 800 -> 16384 peers; the flash crowd grows with
  // it (ROADMAP: "10k joins in 1s against a warm tree" at the top tier).
  const std::size_t peers = scale >= 4.0 ? 16384 : scale >= 2.0 ? 800 : 400;
  const std::size_t flash_joins =
      scale >= 4.0 ? 10000 : scale >= 2.0 ? 200 : 100;

  struct Cell {
    const char* label;
    double loss;
    bool reliable;
  };
  std::vector<Cell> cells;
  std::vector<metrics::ScenarioConfig> points;
  // Loss x reliability: the raw tree vs the NACK/retransmit data plane.
  for (const bool reliable : {false, true}) {
    for (const double loss : {0.0, 0.05, 0.1}) {
      cells.push_back(Cell{"loss sweep", loss, reliable});
      points.push_back(streaming_point(peers, loss, reliable));
    }
  }
  // Bandwidth-capped cells: every peer's access link is token-bucket
  // paced; the tighter cap stacks queueing delay onto every tree hop.
  for (const double kbps : {20000.0, 5000.0}) {
    cells.push_back(Cell{kbps < 10000.0 ? "caps 5 Mbit/s" : "caps 20 Mbit/s",
                         0.0, true});
    auto config = streaming_point(peers, 0.0, /*reliable_data=*/true);
    config.streaming.uplink_kbps = kbps;
    config.streaming.downlink_kbps = kbps;
    config.streaming.scale_caps_with_capacity = true;
    points.push_back(config);
  }
  // Multi-source: three publishers into one shared tree vs one tree per
  // source, same viewer set subscribed to everything.
  for (const bool per_source : {false, true}) {
    cells.push_back(Cell{per_source ? "3 sources, per-source trees"
                                    : "3 sources, shared tree",
                         0.0, true});
    auto config = streaming_point(peers, 0.0, /*reliable_data=*/true);
    config.streaming.sources.publishers = 3;
    config.streaming.sources.mode =
        per_source ? metrics::MultiSourceOptions::Mode::kPerSourceTrees
                   : metrics::MultiSourceOptions::Mode::kSharedTree;
    points.push_back(config);
  }
  // Flash crowd: cold peers join over one second against the warm tree
  // and are scored on the chunks published after their join instant.
  cells.push_back(Cell{"flash crowd", 0.0, true});
  {
    auto config = streaming_point(peers, 0.0, /*reliable_data=*/true);
    config.streaming.flash_crowd_joins = flash_joins;
    config.streaming.flash_crowd_seconds = 1.0;
    points.push_back(config);
  }

  for (auto& point : points) point.shards = shards;

  metrics::GridOptions options;
  options.jobs = tracing.jobs();
  options.repetitions = scale >= 4.0 ? 1 : 2;
  options.counters = true;
  options.histograms = true;
  const auto start = std::chrono::steady_clock::now();
  const auto results = metrics::run_scenario_grid(points, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!tracing.json_out().empty()) {
    bench::JsonReport report("streaming");
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
        .integer("jobs", options.jobs)
        .integer("repetitions", options.repetitions)
        .integer("peers", peers);
    if (shards > 1) report.root().integer("shards", shards);
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto& cell = report.add_cell();
      cell.text("workload", cells[i].label);
      bench::fill_scenario_cell(cell, results[i]);
    }
    report.write_file(tracing.json_out());
  }

  std::printf("Live-streaming workloads on the node runtime "
              "(%zu peers, %zu-viewer group, jobs=%zu, reps=%zu)\n\n",
              peers, points.front().effective_group_size(), options.jobs,
              options.repetitions);
  std::printf("%-28s %-4s %-6s %8s %7s %9s %8s %8s %8s %10s\n", "workload",
              "rel", "loss", "miss", "+/-", "startup", "rebuf",
              "played", "nacks", "retransmit");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& cell = cells[i];
    const auto& c = r.counters;
    std::printf("%-28s %-4s %-6.2f %7.2f%% %6.2f%% %7.0fms %8.2f %8.1f "
                "%8llu %10llu\n",
                cell.label, cell.reliable ? "on" : "off", cell.loss,
                100.0 * r.chunk_miss_ratio,
                100.0 * r.chunk_miss_ratio_stddev, r.startup_delay_ms,
                r.rebuffer_events, r.chunks_played_per_viewer,
                static_cast<unsigned long long>(
                    c.total(trace::CounterId::kNacksSent)),
                static_cast<unsigned long long>(
                    c.total(trace::CounterId::kRetransmits)));
  }
  const auto& flash = results.back();
  std::printf("\nFlash crowd: %zu joins over 1.0 s against the warm tree — "
              "%.1f%% attached, miss %.2f%%, startup %.0f ms\n",
              flash_joins, 100.0 * flash.flash_attach_fraction,
              100.0 * flash.chunk_miss_ratio, flash.startup_delay_ms);
  std::printf("(miss = viewer-eligible chunks not played by their deadline; "
              "startup = join to first played chunk; rebuf = maximal missed "
              "runs per viewer)\n");
  return 0;
}
