#include "overlay/supernode.h"

#include <numeric>

#include "core/utility.h"
#include "util/require.h"

namespace groupcast::overlay {

SupernodeLayout build_supernode_overlay(const PeerPopulation& population,
                                        OverlayGraph& graph,
                                        HostCacheServer& host_cache,
                                        util::Rng& rng) {
  GC_REQUIRE_MSG(graph.edge_count() == 0,
                 "supernode construction requires an empty graph");

  SupernodeLayout layout;
  layout.is_supernode.assign(population.size(), 0);
  for (PeerId p = 0; p < population.size(); ++p) {
    if (population.info(p).capacity >= kSupernodeCapacityThreshold) {
      layout.supernodes.push_back(p);
      layout.is_supernode[p] = 1;
    } else {
      layout.leaves.push_back(p);
    }
  }
  GC_REQUIRE_MSG(!layout.supernodes.empty(),
                 "no peer clears the supernode capacity threshold");

  // Core tier: the regular utility-aware bootstrap among supernodes only.
  // A dedicated host cache keeps the candidate pool inside the tier.
  HostCacheServer core_cache(population, HostCacheOptions{}, rng);
  GroupCastBootstrap core_bootstrap(population, graph, core_cache,
                                    BootstrapOptions{}, rng);
  auto join_order = layout.supernodes;
  rng.shuffle(join_order);
  for (const auto sn : join_order) core_bootstrap.join(sn);
  layout.core_joins = core_bootstrap.take_joins();

  // Leaf tier: every leaf attaches to kLeafLinks supernodes chosen by
  // the utility function.  Supernodes always accept leaves (that is what
  // they signed up for).
  for (const auto leaf : layout.leaves) {
    std::vector<core::Candidate> scored;
    scored.reserve(layout.supernodes.size());
    for (const auto sn : layout.supernodes) {
      scored.push_back(
          core::Candidate{population.info(sn).capacity,
                          population.coord_distance_ms(leaf, sn)});
    }
    const double r = core::clamp_resource_level(
        population.sampled_resource_level(
            leaf, PeerPopulation::kResourceSample, rng));
    const auto prefs = core::selection_preferences(r, scored);
    const auto picks = core::weighted_sample_without_replacement(
        prefs, kLeafLinks, rng);
    for (const auto idx : picks) {
      const auto sn = layout.supernodes[idx];
      graph.add_edge(leaf, sn);
      graph.add_edge(sn, leaf);
    }
  }

  for (PeerId p = 0; p < population.size(); ++p) {
    host_cache.register_peer(p);
  }
  return layout;
}

}  // namespace groupcast::overlay
