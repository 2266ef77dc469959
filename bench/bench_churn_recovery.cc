// Churn-recovery sweep: how the reliable control plane holds the
// dissemination tree together under message loss and ungraceful failures,
// and how much of the lost group data the reliable data plane wins back.
//
// The grid crosses steady-state loss probability with the fraction of
// group members crashed ungracefully mid-session (plus a graceful-leave
// column), all on the node runtime with heartbeats and the retry ladder
// active (docs/ROBUSTNESS.md) — once with the legacy fire-and-forget data
// path and once with NACK/retransmit reliability on the tree edges.
// Reported per point: post-churn delivery ratio with its seed-to-seed
// stddev, the fraction of surviving subscribers re-attached, mean orphan
// time in convergence epochs, and the recovery overhead counters
// (control_retries / control_giveups / nacks / retransmits).
//
// --jobs=N parallelizes over the grid via metrics::run_scenario_grid;
// results are byte-identical for every job count.
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

metrics::ScenarioConfig recovery_point(std::size_t peers, double loss,
                                       double crash_fraction,
                                       double graceful_fraction,
                                       bool reliable_data) {
  metrics::ScenarioConfig config;
  config.peer_count = peers;
  config.groups = 1;
  config.seed = 7100;
  config.recovery.enabled = true;
  config.recovery.loss_probability = loss;
  config.recovery.crash_fraction = crash_fraction;
  config.recovery.graceful_fraction = graceful_fraction;
  config.recovery.reliable_data = reliable_data;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const trace::CliTracing tracing(argc, argv,
                                  {.jobs = true, .shards = true});
  const std::size_t shards = tracing.shards();
  const double scale = metrics::bench_scale();
  // Scale ladder (ROADMAP: "GROUPCAST_BENCH_SCALE=4 recovery runs at 8k+
  // peers"): 400 -> 800 -> 8192 peers.
  const std::size_t peers = scale >= 4.0 ? 8192 : scale >= 2.0 ? 800 : 400;

  const std::vector<double> losses = {0.0, 0.1, 0.2};
  struct Churn {
    double crash;
    double graceful;
    const char* label;
  };
  std::vector<Churn> churns = {
      {0.0, 0.0, "no churn"},
      {0.15, 0.15, "15% crash + 15% leave"},
      {0.30, 0.0, "30% crash"},
  };
  if (scale >= 2.0) churns.push_back({0.5, 0.0, "50% crash"});

  struct Cell {
    double loss;
    const Churn* churn;
    bool reliable;
    bool flow = false;
  };
  std::vector<Cell> cells;
  std::vector<metrics::ScenarioConfig> points;
  for (const bool reliable : {false, true}) {
    for (const double loss : losses) {
      for (const auto& churn : churns) {
        cells.push_back(Cell{loss, &churn, reliable});
        points.push_back(recovery_point(peers, loss, churn.crash,
                                        churn.graceful, reliable));
      }
    }
  }
  // Slow-child cells: every fifth subscriber acks at a tenth of the
  // normal cadence, starving its parent's ack clock.  Run once without
  // flow control (the sender buffer backs up to the cap) and once with
  // flow control + adaptive detection (the backlog parks behind the
  // window instead).  Static labels: `cells` keeps raw Churn pointers,
  // so these must not live in the reallocating `churns` vector.
  static const Churn kSlowChild{0.0, 0.0, "slow child (1-in-5)"};
  static const Churn kSlowChildFlow{0.0, 0.0, "slow child + flow control"};
  for (const bool flow : {false, true}) {
    cells.push_back(Cell{0.0, flow ? &kSlowChildFlow : &kSlowChild,
                         /*reliable=*/true, flow});
    auto config = recovery_point(peers, 0.0, 0.0, 0.0, /*reliable_data=*/true);
    config.recovery.slow_peer_stride = 5;
    config.recovery.speaking_payloads = 32;
    config.recovery.flow_control = flow;
    // A window narrower than the speaking round, so the slow children's
    // edges actually block and the throttle path shows up in the cell.
    config.recovery.flow_window = 8;
    config.recovery.adaptive = flow;
    points.push_back(config);
  }

  // Partition-heal cells: a 30-second partition cuts the rendezvous point
  // and a slice of its subtree off from the rest of the network while a
  // 3-member replica quorum hands the lease to the majority side; both
  // sides keep publishing and the heal must merge the divergent epoch
  // logs (docs/ROBUSTNESS.md, "Rendezvous replication & quorum handoff").
  // Static labels, same rule as the slow-child cells above.
  static const Churn kPartition{0.0, 0.0, "30s RP-side partition"};
  static const Churn kPartitionChurn{0.1, 0.0, "30s partition + 10% crash"};
  const std::size_t first_partition_cell = cells.size();
  for (const auto* churn : {&kPartition, &kPartitionChurn}) {
    cells.push_back(Cell{0.0, churn, /*reliable=*/false});
    auto config = recovery_point(peers, 0.0, churn->crash, churn->graceful,
                                 /*reliable_data=*/false);
    config.recovery.replication = true;
    config.recovery.replicas = 3;
    config.recovery.partition_seconds = 30.0;
    points.push_back(config);
  }

  for (auto& point : points) point.shards = shards;

  metrics::GridOptions options;
  options.jobs = tracing.jobs();
  // Seed repetitions: the loss sweep must report seed-to-seed dispersion
  // of the delivery ratio, so even the fast tier runs >= 2 topologies.
  // The 8k tier stays at 1 — that run is a wall-clock-bounded scale probe.
  options.repetitions = scale >= 4.0 ? 1 : scale >= 2.0 ? 3 : 2;
  options.counters = true;
  // Distribution + trajectory views (histogram summaries and the
  // per-epoch timeline in each JSON cell); merged order-independently,
  // so the report stays byte-identical at every --jobs and --shards count.
  options.histograms = true;
  options.timeline = true;
  const auto start = std::chrono::steady_clock::now();
  const auto results = metrics::run_scenario_grid(points, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!tracing.json_out().empty()) {
    bench::JsonReport report("churn_recovery");
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
    if (shards > 1) {
      // Sharded-kernel runs only: absent fields keep --shards=1 reports
      // byte-identical to pre-shard builds.  Imbalance is max/min of the
      // element-wise per-shard event totals across every grid cell.
      std::vector<std::uint64_t> per_shard(shards, 0);
      for (const auto& r : results) {
        for (std::size_t s = 0;
             s < std::min(per_shard.size(), r.events_per_shard.size()); ++s) {
          per_shard[s] += r.events_per_shard[s];
        }
      }
      const auto [min_it, max_it] =
          std::minmax_element(per_shard.begin(), per_shard.end());
      report.root()
          .integer("shards", shards)
          .number("events_per_second_per_shard",
                  wall_seconds > 0.0
                      ? static_cast<double>(events) / wall_seconds /
                            static_cast<double>(shards)
                      : 0.0)
          .number("shard_imbalance",
                  *min_it > 0 ? static_cast<double>(*max_it) /
                                    static_cast<double>(*min_it)
                              : 0.0);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto& cell = report.add_cell();
      cell.text("churn", cells[i].churn->label);
      bench::fill_scenario_cell(cell, results[i]);
    }
    report.write_file(tracing.json_out());
  }

  std::printf("Churn recovery on the node runtime "
              "(%zu peers, %zu-member group, jobs=%zu, reps=%zu)\n\n",
              peers, points.front().effective_group_size(), options.jobs,
              options.repetitions);
  std::printf("%-4s %-6s %-24s %9s %7s %10s %7s %6s %8s %8s %9s %6s\n",
              "rel", "loss", "churn", "delivery", "+/-", "reattached",
              "orphan", "conv", "retries", "nacks", "retransmit", "viol");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& cell = cells[i];
    const auto& c = r.counters;
    std::printf(
        "%-4s %-6.2f %-24s %8.1f%% %6.1f%% %9.1f%% %7.2f %6.1f %8llu "
        "%8llu %9llu %6.0f\n",
        cell.reliable ? (cell.flow ? "flow" : "on") : "off", cell.loss,
        cell.churn->label,
        100.0 * r.delivery_ratio, 100.0 * r.delivery_ratio_stddev,
        100.0 * r.reattached_fraction, r.mean_orphan_epochs,
        r.epochs_to_converge,
        static_cast<unsigned long long>(
            c.total(trace::CounterId::kControlRetries)),
        static_cast<unsigned long long>(
            c.total(trace::CounterId::kNacksSent)),
        static_cast<unsigned long long>(
            c.total(trace::CounterId::kRetransmits)),
        r.invariant_violations);
  }
  std::printf("\n(+/- = seed-to-seed stddev of the delivery ratio; orphan "
              "= mean epochs survivors spent detached; conv = epochs to "
              "full re-convergence; viol = tree-invariant violations at "
              "the end, summed over the repetitions)\n");
  std::printf("\nPartition-heal cells (both sides must keep delivering "
              "through the cut):\n");
  for (std::size_t i = first_partition_cell; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("  %-26s majority %5.1f%%  minority %5.1f%%  handoffs "
                "%.1f  epoch_conflicts %.1f\n",
                cells[i].churn->label,
                100.0 * r.partition_majority_delivery,
                100.0 * r.partition_minority_delivery, r.lease_handoffs,
                r.epoch_conflicts);
  }
  return 0;
}
