// Utility-aware overlay construction (Section 3.3).
//
// The join protocol of a peer p_i:
//   1. obtain bootstrap peers B_i from the host cache (closest + random);
//   2. probe each peer in B_i; each probe response carries the responder's
//      neighbour list.  The union forms the candidate list LC_i, in which
//      the occurrence frequency f_i(j) of a peer j samples j's degree;
//   3. score every candidate with Equation 6 — the utility function with
//      f_i(j) substituted for capacity — and pick out-neighbours with
//      probability proportional to utility (count scaled by own capacity);
//   4. request a back link from every chosen neighbour k, which accepts
//      with probability
//        PB_k = rc_k(Nbr_k)² · rc_i(Nbr_k) + (1 − rc_k(Nbr_k)²) · rd_i(Nbr_k)
//      and otherwise still accepts with probability p_b = 0.5.
//
// Preferential attachment through f_i(j) yields a power-law degree
// distribution (Figure 7); the distance term keeps neighbours close
// (Figure 9).
#pragma once

#include <cstddef>
#include <vector>

#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "overlay/population.h"

namespace groupcast::overlay {

/// Out-degree target: clamp(ceil(kDegreeBase * capacity^kDegreeExponent),
/// kDegreeMin, kDegreeMax).  Scales connection count with capacity so
/// powerful peers become hubs.
inline constexpr double kDegreeBase = 1.6;
inline constexpr double kDegreeExponent = 0.32;
inline constexpr std::size_t kDegreeMin = 2;
inline constexpr std::size_t kDegreeMax = 48;

/// p_b: probability of accepting a back link that failed the PB test.
inline constexpr double kFallbackBackLinkProb = 0.5;

struct BootstrapOptions {
  /// Ablation hook: when >= 0, every peer uses this fixed resource level
  /// instead of the sampled estimate (pinning the utility blend: r -> 0
  /// gives distance-only selection, r -> 1 capacity-only).  < 0 = paper
  /// behaviour.
  double pinned_resource_level = -1.0;

  friend bool operator==(const BootstrapOptions&,
                         const BootstrapOptions&) = default;
};

/// Per-join protocol cost accounting.
struct JoinStats {
  std::size_t probe_messages = 0;       // probes + probe responses
  std::size_t back_link_requests = 0;
  std::size_t back_links_accepted = 0;  // via PB or the p_b fallback
  std::size_t out_links_created = 0;
  std::size_t candidates_seen = 0;      // |LC_i| (distinct)
};

class GroupCastBootstrap {
 public:
  GroupCastBootstrap(const PeerPopulation& population, OverlayGraph& graph,
                     HostCacheServer& host_cache, BootstrapOptions options,
                     util::Rng& rng);

  /// Fork copy (deployment snapshots): identical protocol state — options,
  /// RNG stream position, joined set — rebound to the fork's own graph and
  /// host cache, so a fork never touches the donor's structures.
  GroupCastBootstrap(const GroupCastBootstrap& other, OverlayGraph& graph,
                     HostCacheServer& host_cache);

  /// Executes the full join protocol for `peer` and registers it with the
  /// host cache.  A peer joins at most once; a second join is a
  /// precondition violation.
  JoinStats join(PeerId peer);

  bool is_joined(PeerId peer) const { return joined_.at(peer) != 0; }

  /// Out-degree target for a peer of the given capacity.
  std::size_t target_degree(double capacity) const;

  /// The back-link acceptance probability PB_k(Nbr(p_k), p_i) — exposed for
  /// tests.  `nbrs` is k's current neighbour set.
  double back_link_probability(PeerId k, PeerId i,
                               OverlayGraph::NeighborSpan nbrs) const;

 private:
  const PeerPopulation* population_;
  OverlayGraph* graph_;
  HostCacheServer* host_cache_;
  BootstrapOptions options_;
  util::Rng rng_;
  std::vector<char> joined_;
  /// join()'s arena buffer: allocated by the first join, never copied.
  std::vector<std::byte> arena_;
};

}  // namespace groupcast::overlay
