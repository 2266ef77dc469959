// Extension bench: the Section 6 reliability extension on the node
// runtime — rendezvous replication with leased leadership and the rung-0
// backup parent (docs/ROBUSTNESS.md) against the plain recovery ladder.
//
// Each recovery cell crashes a fraction of the group's subscribers
// ungracefully and watches the survivors re-attach through the retry
// ladder (metrics/recovery.h).  Every cell runs twice at the same seeds:
// once with replication off, and once with it on, where a parent offers
// its own parent on Join/Heartbeat acks and an orphan tries that
// grandparent (rung 0) before the advert-parent/ripple/rendezvous rungs.
// Reported per cell: the fraction of surviving subscribers re-attached,
// the mean epochs they spent orphaned, the recovery-window control
// messages per survivor, and the orphans re-attached through rung 0
// (kBackupAttaches).
//
// --jobs=N parallelizes over the grid via metrics::run_scenario_grid;
// results are byte-identical for every job count.
#include <cstdio>
#include <vector>

#include "json_report.h"
#include "metrics/experiment.h"
#include "trace/cli.h"
#include "trace/counters.h"

int main(int argc, char** argv) {
  const groupcast::trace::CliTracing tracing(argc, argv);
  using namespace groupcast;

  const std::size_t peers = metrics::bench_scale() >= 2.0 ? 2000 : 1000;
  struct Cell {
    double loss;
    double crash;
    bool replicated;
  };
  std::vector<Cell> cells;
  std::vector<metrics::ScenarioConfig> points;
  for (const double loss : {0.0, 0.1}) {
    for (const double crash : {0.15, 0.3}) {
      for (const bool replicated : {false, true}) {
        cells.push_back(Cell{loss, crash, replicated});
        metrics::ScenarioConfig config;
        config.peer_count = peers;
        config.groups = 1;
        config.seed = 5550;
        config.shards = tracing.shards();
        config.recovery.enabled = true;
        config.recovery.loss_probability = loss;
        config.recovery.crash_fraction = crash;
        config.recovery.replication = replicated;
        points.push_back(config);
      }
    }
  }

  metrics::GridOptions options;
  options.jobs = tracing.jobs();
  options.repetitions = 2;
  options.counters = true;
  const auto results = metrics::run_scenario_grid(points, options);

  if (!tracing.json_out().empty()) {
    bench::JsonReport report("reliability");
    report.root()
        .integer("jobs", options.jobs)
        .integer("repetitions", options.repetitions)
        .integer("peers", peers);
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto& cell = report.add_cell();
      cell.text("replication", cells[i].replicated ? "on" : "off");
      bench::fill_scenario_cell(cell, results[i]);
    }
    report.write_file(tracing.json_out());
  }

  std::printf("Extension: rendezvous replication + rung-0 backup parents vs "
              "the plain recovery ladder\n(%zu peers, %zu-member group, "
              "reps=%zu, same seeds per pair)\n\n",
              peers, points.front().effective_group_size(),
              options.repetitions);
  std::printf("%-6s %-6s %-11s %10s %7s %9s %15s\n", "loss", "crash",
              "replication", "reattached", "orphan", "overhead",
              "backup_attaches");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-6.2f %-6.2f %-11s %9.1f%% %7.2f %9.2f %15llu\n",
                cells[i].loss, cells[i].crash,
                cells[i].replicated ? "on" : "off",
                100.0 * r.reattached_fraction, r.mean_orphan_epochs,
                r.control_overhead,
                static_cast<unsigned long long>(r.counters.total(
                    trace::CounterId::kBackupAttaches)));
  }
  std::printf("\n(reattached = surviving subscribers back on the tree; "
              "orphan = mean epochs they\nspent cut off; overhead = "
              "recovery-window messages per survivor; backup_attaches =\n"
              "orphans re-adopted by their grandparent on rung 0, summed "
              "over the repetitions)\n");
  return 0;
}
