#include "overlay/plod.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/distributions.h"
#include "util/require.h"

namespace groupcast::overlay {

PlodResult generate_plod(OverlayGraph& graph, util::Rng& rng) {
  const std::size_t n = graph.peer_count();
  GC_REQUIRE(n >= 2);
  GC_REQUIRE_MSG(graph.edge_count() == 0, "PLOD requires an empty graph");
  const std::size_t max_degree = std::max<std::size_t>(64, n / 10);

  PlodResult result;

  // 1. Sample each node's degree credit from P(d) ∝ d^-α over
  //    {kPlodMinDegree, .., max_degree}.
  const std::size_t span = max_degree - kPlodMinDegree + 1;
  util::ZipfDistribution zipf(span, kPlodAlpha);
  std::vector<std::size_t> credit(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Zipf rank 1 (most probable) maps to kPlodMinDegree.
    credit[i] = kPlodMinDegree + (zipf.sample(rng) - 1);
    result.assigned_credits += credit[i];
  }

  // 2. Randomly pair nodes with remaining credit.
  std::vector<PeerId> pool;  // nodes with credit left
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (credit[i] > 0) pool.push_back(static_cast<PeerId>(i));
  }
  std::size_t attempts_left = result.assigned_credits * kPlodAttemptsFactor;
  auto compact = [&pool, &credit]() {
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&credit](PeerId p) { return credit[p] == 0; }),
               pool.end());
  };
  std::size_t stale = 0;
  while (pool.size() >= 2 && attempts_left-- > 0) {
    const PeerId a = pool[rng.uniform_index(pool.size())];
    const PeerId b = pool[rng.uniform_index(pool.size())];
    if (a == b || graph.connected(a, b)) {
      if (++stale > pool.size() * 8) {
        compact();
        stale = 0;
        if (pool.size() < 2) break;
      }
      continue;
    }
    graph.add_edge(a, b);
    graph.add_edge(b, a);
    ++result.placed_edges;
    --credit[a];
    --credit[b];
    stale = 0;
    if (credit[a] == 0 || credit[b] == 0) compact();
  }

  // 3. Stitch components: find connected components of the undirected view
  //    and chain them together with random inter-component edges.
  std::vector<std::int32_t> component(n, -1);
  std::int32_t n_components = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    const std::int32_t c = n_components++;
    std::queue<PeerId> frontier;
    frontier.push(static_cast<PeerId>(start));
    component[start] = c;
    while (!frontier.empty()) {
      const PeerId at = frontier.front();
      frontier.pop();
      for (const PeerId nbr : graph.neighbors(at)) {
        if (component[nbr] < 0) {
          component[nbr] = c;
          frontier.push(nbr);
        }
      }
    }
  }
  if (n_components > 1) {
    // One random representative per component, chained in random order.
    std::vector<PeerId> reps(static_cast<std::size_t>(n_components), kNoPeer);
    std::vector<PeerId> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (const PeerId p : order) {
      auto& rep = reps[static_cast<std::size_t>(component[p])];
      if (rep == kNoPeer) rep = p;
    }
    for (std::size_t c = 1; c < reps.size(); ++c) {
      graph.add_edge(reps[c - 1], reps[c]);
      graph.add_edge(reps[c], reps[c - 1]);
      ++result.repair_edges;
    }
  }

  return result;
}

}  // namespace groupcast::overlay
