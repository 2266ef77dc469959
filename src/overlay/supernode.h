// Two-tier ("supernode") overlay variant.
//
// The paper's Section 6 notes that "the GroupCast system can be easily
// adapted for supernode or multi-layer overlay architectures".  This module
// is that adaptation: peers whose capacity clears a threshold form the
// *core* tier, built with the regular utility-aware bootstrap among
// themselves; every remaining peer becomes a *leaf* that attaches to a few
// nearby supernodes (selection by the same utility function, which for
// weak leaves degenerates to proximity — exactly the behaviour Eq. 5
// prescribes).
//
// The same announcement / subscription / session machinery runs unchanged
// on the combined graph, so the flat and two-tier architectures are
// directly comparable (see bench_supernode).
#pragma once

#include "overlay/bootstrap.h"

namespace groupcast::overlay {

struct SupernodeOptions {
  /// Peers at or above this capacity form the core tier (Table 1: 100x
  /// keeps ~35% of peers in the core).
  double capacity_threshold = 100.0;
  /// Supernodes each leaf attaches to (primary + backups).
  std::size_t leaf_links = 2;
  /// Bootstrap parameters for the core tier.
  BootstrapOptions core;
};

struct SupernodeLayout {
  std::vector<PeerId> supernodes;
  std::vector<PeerId> leaves;
  std::vector<char> is_supernode;  // indexed by peer

  double core_fraction() const {
    const auto total = supernodes.size() + leaves.size();
    return total == 0 ? 0.0
                      : static_cast<double>(supernodes.size()) /
                            static_cast<double>(total);
  }
};

/// Builds the two-tier overlay into `graph` (must be empty) and registers
/// every peer with `host_cache`.  Returns the tier assignment.
SupernodeLayout build_supernode_overlay(const PeerPopulation& population,
                                        OverlayGraph& graph,
                                        HostCacheServer& host_cache,
                                        const SupernodeOptions& options,
                                        util::Rng& rng);

}  // namespace groupcast::overlay
