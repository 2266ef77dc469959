// Figures 11–17: the paper's Section 4 sweep, run once.
//
// One grid — overlay size x {GroupCast, random power-law} x {SSA, NSSA},
// `groups` communication groups per point over `repetitions` topologies —
// and one table per figure, printed in figure order from that one result
// vector:
//
//  11  advertisement and subscription (ripple search + join) messages per
//      group.  Paper: SSA cuts the load vs NSSA by ~63-70% on GroupCast
//      and ~35-44% on random power-law overlays; subscription messages
//      are a small fraction of advertisement messages.
//  12  advertisement receiving rate and subscription success rate (SSA).
//      Paper: fewer GroupCast peers receive the advertisement, yet
//      success stays at (or near) 100% on both overlays at ripple TTL 2.
//  13  service lookup latency (SSA).  Paper: GroupCast cuts it by
//      74%-84%, because subscribers reach nearby advertisement holders.
//  14  relative delay penalty (ESM delay / IP-multicast delay).  Paper:
//      ~1.5 on GroupCast regardless of scheme; notably higher on random
//      power-law overlays, where SSA makes a visible difference.
//  15  link stress (ESM IP messages / IP-multicast IP messages).  Paper:
//      GroupCast's is roughly 2/3 of the random power-law overlay's.
//  16  node stress (children per non-leaf tree peer).  Paper: almost
//      constant on GroupCast as the system scales.
//  17  overload index (overloaded fraction x excess workload; log scale).
//      Paper: SSA cuts overloading on random power-law by about an order
//      of magnitude, GroupCast by one to two more; GroupCast+NSSA and
//      random-PL+SSA cross at large N.
//
// --json_out writes one report (BENCH_fig11_17.json) with a cell per
// (size, combo) grid point.
#include <chrono>
#include <cstdio>
#include <vector>

#include "sweep_common.h"

#include "trace/cli.h"
#include "util/require.h"

namespace {

using namespace groupcast;

// Row offsets within one size's block, in all_combos() order.
constexpr std::size_t kGroupCastSsa = 0;
constexpr std::size_t kGroupCastNssa = 1;
constexpr std::size_t kRandomSsa = 2;
constexpr std::size_t kRandomNssa = 3;
constexpr std::size_t kCombos = 4;

struct Sweep {
  const bench::SweepPlan& plan;
  const std::vector<bench::Combo>& combos;
  const std::vector<metrics::ScenarioResult>& results;

  /// The kCombos results of plan.sizes[i].
  const metrics::ScenarioResult* block(std::size_t i) const {
    return &results[i * kCombos];
  }
};

void print_fig11(const Sweep& sweep) {
  std::printf("%8s %-18s %14s %14s %10s\n", "peers", "combo", "adv msgs",
              "sub msgs", "total");
  for (std::size_t i = 0; i < sweep.plan.sizes.size(); ++i) {
    double total[kCombos];
    for (std::size_t c = 0; c < kCombos; ++c) {
      const auto& r = sweep.block(i)[c];
      total[c] = r.advertisement_messages + r.subscription_messages;
      std::printf("%8zu %-18s %14.0f %14.0f %10.0f\n", sweep.plan.sizes[i],
                  sweep.combos[c].label, r.advertisement_messages,
                  r.subscription_messages, total[c]);
    }
    std::printf("%8s reduction SSA vs NSSA: GroupCast %.0f%%, "
                "random-PL %.0f%%\n",
                "",
                100.0 * (1.0 - total[kGroupCastSsa] / total[kGroupCastNssa]),
                100.0 * (1.0 - total[kRandomSsa] / total[kRandomNssa]));
  }
}

// Figures 12 and 13 compare the two overlays under SSA: the SSA rows of
// the grid, labelled by overlay alone.
struct SsaRow {
  std::size_t combo;
  const char* label;
};
constexpr SsaRow kSsaRows[] = {{kGroupCastSsa, "GroupCast"},
                               {kRandomSsa, "random-PL"}};

void print_fig12(const Sweep& sweep) {
  std::printf(
      "Figure 12: receiving rate & subscription success rate (SSA, TTL=2)\n");
  std::printf("%8s %-12s %16s %16s\n", "peers", "overlay", "receiving rate",
              "success rate");
  for (std::size_t i = 0; i < sweep.plan.sizes.size(); ++i) {
    for (const auto& row : kSsaRows) {
      const auto& r = sweep.block(i)[row.combo];
      std::printf("%8zu %-12s %15.1f%% %15.1f%%\n", sweep.plan.sizes[i],
                  row.label, 100.0 * r.receiving_rate,
                  100.0 * r.subscription_success_rate);
    }
  }
}

void print_fig13(const Sweep& sweep) {
  std::printf("Figure 13: service lookup latency (SSA)\n");
  std::printf("%8s %-12s %18s\n", "peers", "overlay", "lookup latency");
  for (std::size_t i = 0; i < sweep.plan.sizes.size(); ++i) {
    const auto* block = sweep.block(i);
    for (const auto& row : kSsaRows) {
      std::printf("%8zu %-12s %15.1f ms\n", sweep.plan.sizes[i], row.label,
                  block[row.combo].lookup_latency_ms);
    }
    std::printf("%8s reduction: %.0f%%\n", "",
                100.0 * (1.0 - block[kGroupCastSsa].lookup_latency_ms /
                                   block[kRandomSsa].lookup_latency_ms));
  }
}

/// Figures 14–17: one `field` value per (size, combo) row, printed
/// `%<width>.<precision>f` under `column`.  `ratio_line` adds Fig. 15's
/// GroupCast+SSA / random-PL+NSSA ratio after each size.
void print_metric(const Sweep& sweep, const char* title, const char* column,
                  int width, int precision,
                  double metrics::ScenarioResult::*field,
                  bool ratio_line = false) {
  std::printf("%s\n", title);
  std::printf("%8s %-18s %*s\n", "peers", "combo", width, column);
  for (std::size_t i = 0; i < sweep.plan.sizes.size(); ++i) {
    for (std::size_t c = 0; c < kCombos; ++c) {
      std::printf("%8zu %-18s %*.*f\n", sweep.plan.sizes[i],
                  sweep.combos[c].label, width, precision,
                  sweep.block(i)[c].*field);
    }
    const double random_nssa = sweep.block(i)[kRandomNssa].*field;
    if (ratio_line && random_nssa > 0.0) {
      std::printf("%8s GroupCast+SSA / random-PL+NSSA = %.2f\n", "",
                  sweep.block(i)[kGroupCastSsa].*field / random_nssa);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const trace::CliTracing tracing(argc, argv, {.jobs = true});
  auto plan = bench::default_sweep_plan();
  plan.jobs = tracing.jobs();
  bench::print_sweep_header(
      "Figure 11: advertising + subscription messages per group", plan);

  const auto combos = bench::all_combos();
  GC_REQUIRE(combos.size() == kCombos);
  const auto start = std::chrono::steady_clock::now();
  const auto results = bench::run_sweep_grid(plan, combos);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  bench::write_sweep_json(tracing.json_out(), "fig11_17", combos, results,
                          wall_seconds, plan.jobs);

  const Sweep sweep{plan, combos, results};
  print_fig11(sweep);
  print_fig12(sweep);
  print_fig13(sweep);
  using R = metrics::ScenarioResult;
  print_metric(sweep, "Figure 14: relative delay penalty", "delay penalty",
               14, 2, &R::delay_penalty);
  print_metric(sweep, "Figure 15: link stress", "link stress", 12, 2,
               &R::link_stress, /*ratio_line=*/true);
  print_metric(sweep, "Figure 16: node stress", "node stress", 12, 2,
               &R::node_stress);
  print_metric(sweep, "Figure 17: overload index (log scale)",
               "overload index", 16, 6, &R::overload_index);
  return 0;
}
