// Figures 7 and 8: log-log degree distributions of a 5000-peer GroupCast
// overlay (utility-aware bootstrap, Fig 7) and a 5000-peer random
// power-law overlay generated with PLOD, alpha = 1.8 (Fig 8).
//
// Expected shapes: both distributions are straight lines in log-log space
// (power laws); the GroupCast tail is shorter ("does not have a long
// tail") and its clustering coefficient is lower than PLOD's.
#include <cstdio>

#include "core/middleware.h"
#include "metrics/experiment.h"
#include "metrics/graph_stats.h"

#include "trace/cli.h"

namespace {

void report(const char* title, groupcast::core::OverlayKind kind,
            std::size_t peers, std::uint64_t seed) {
  using namespace groupcast;
  core::MiddlewareConfig config;
  config.peer_count = peers;
  config.seed = seed;
  config.overlay = kind;
  core::GroupCastMiddleware middleware(config);

  const auto dist = metrics::degree_distribution(middleware.graph());
  std::printf("\n%s (%zu peers, seed=%llu)\n", title, peers,
              static_cast<unsigned long long>(seed));
  std::printf("  degree -> peer count (log-log slope %.2f)\n",
              dist.log_log_slope());
  for (const auto& [degree, count] : dist.items()) {
    std::printf("  %6zu %8zu\n", degree, count);
  }
  std::printf("  clustering coefficient: %.4f\n",
              middleware.graph().clustering_coefficient());
  std::printf("  avg overlay hop distance (sampled): %.2f\n",
              middleware.graph().average_hop_distance(middleware.rng(), 300));
}

}  // namespace

int main(int argc, char** argv) {
  const groupcast::trace::CliTracing tracing(argc, argv);
  const std::size_t peers =
      groupcast::metrics::bench_scale() >= 2.0 ? 5000 : 2500;
  report("Figure 7: GroupCast overlay degree distribution",
         groupcast::core::OverlayKind::kGroupCast, peers, 77);
  report("Figure 8: random power-law (PLOD, alpha=1.8) degree distribution",
         groupcast::core::OverlayKind::kRandomPowerLaw, peers, 77);
  return 0;
}
