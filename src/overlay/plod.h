// PLOD — Power-Law Out-Degree random graph generator (Palmer & Steffan,
// GLOBECOM 2000).  The paper uses PLOD-generated "random power-law
// overlay networks" as the baseline for every overlay-level comparison
// (Figures 8, 10–17): same degree law, but neighbours chosen with no regard
// to proximity or capacity.
#pragma once

#include "overlay/graph.h"
#include "overlay/population.h"

namespace groupcast::overlay {

/// Degree-law exponent; the paper's Figure 8 uses α = 1.8.
inline constexpr double kPlodAlpha = 1.8;

/// Degree credits are drawn from ranks {kPlodMinDegree .. max degree} with
/// P(d) ∝ d^-α, where the max degree is max(64, peer_count / 10), letting
/// hub sizes grow with the network as in measured Gnutella snapshots.  The
/// floor of 3 keeps the realized graph well connected (Gnutella-like mean
/// degree ≈ 4), matching the connectivity of the paper's baseline
/// networks; with a floor of 2 the generator produces long degree-2 chains
/// on which scoped floods die out.
inline constexpr std::size_t kPlodMinDegree = 3;

/// Random (src, dst) pairing attempts per assigned credit before giving up
/// on placing the remaining budget.
inline constexpr std::size_t kPlodAttemptsFactor = 20;

/// Result of a PLOD run.
struct PlodResult {
  std::size_t assigned_credits = 0;  // Σ sampled degrees
  std::size_t placed_edges = 0;      // undirected edges realized
  std::size_t repair_edges = 0;      // edges added to stitch components
};

/// Generates a PLOD graph over all peers in `graph` (which must be empty).
/// Each realized undirected edge is stored as a pair of directed edges so
/// the result is comparable with GroupCast overlays.  After credit
/// placement, disconnected components are stitched together with random
/// repair edges (and counted in the result) so that downstream experiments
/// always run on a connected overlay — the paper's comparisons presuppose
/// one.
PlodResult generate_plod(OverlayGraph& graph, util::Rng& rng);

}  // namespace groupcast::overlay
