// Service announcement: SSA and NSSA (Sections 2.2 and 3.2).
//
// A rendezvous point advertises a communication group through the overlay.
// Three schemes are implemented:
//
//  * kNssa        — Non-Selective Service Announcement: DVMRP/Scattercast
//                   style flooding.  Each peer forwards the advertisement to
//                   *all* neighbours (except the sender) on first receipt;
//                   the full path travels inside the message for loop
//                   suppression, as Scattercast does.
//  * kSsaRandom   — the basic framework's SSA: forward to a random
//                   pre-specified fraction of neighbours.
//  * kSsaUtility  — GroupCast's SSA: the forwarding subset is drawn with
//                   probability proportional to the neighbours' utility
//                   values (Section 3.2), so high-utility links form the
//                   eventual spanning tree.
//
// The announcement runs event-driven on the simulator: every transmission
// is delivered after the true unicast latency of the link, so arrival
// times and the resulting reverse paths reflect the physical network.
#pragma once

#include <optional>
#include <vector>

#include "core/message.h"
#include "core/utility.h"
#include "overlay/graph.h"
#include "overlay/population.h"
#include "sim/simulator.h"

namespace groupcast::core {

enum class AnnouncementScheme { kNssa, kSsaRandom, kSsaUtility };

const char* to_string(AnnouncementScheme scheme);

struct AdvertisementOptions {
  AnnouncementScheme scheme = AnnouncementScheme::kSsaUtility;
  /// Fraction of neighbours an SSA forwarder selects (ceil, at least 1).
  double forward_fraction = 0.35;
  /// Initial TTL of the advertisement.
  std::size_t ttl = 8;

  /// Ablation hook: when >= 0, forwarders use this fixed resource level
  /// instead of sampling (see BootstrapOptions::pinned_resource_level).
  double pinned_resource_level = -1.0;

  friend bool operator==(const AdvertisementOptions&,
                         const AdvertisementOptions&) = default;
};

/// Outcome of one announcement: who received it, from whom, and when.
struct AdvertisementState {
  overlay::PeerId rendezvous = overlay::kNoPeer;
  AnnouncementScheme scheme = AnnouncementScheme::kSsaUtility;
  /// parent[p]: neighbour the first advertisement copy arrived from;
  /// kNoPeer if p never received it.  parent[rendezvous] == rendezvous.
  std::vector<overlay::PeerId> parent;
  /// arrival[p]: simulated arrival time of the first copy (valid only if
  /// parent[p] != kNoPeer).
  std::vector<sim::SimTime> arrival;
  /// Advertisement transmissions (every copy sent, duplicates included).
  std::size_t messages = 0;

  bool received(overlay::PeerId p) const {
    return parent.at(p) != overlay::kNoPeer;
  }
  /// Fraction of overlay peers the advertisement reached (Figure 12's
  /// "receiving rate").  `population` = total peer count.
  double receiving_rate() const;
};

/// The forwarding decision of one SSA/NSSA forwarder (Section 3.2): the
/// subset of `neighbors` other than `exclude` that `from` passes the
/// advertisement on to.  AdvertisementEngine and GroupCastNode both call
/// it, so the engine pipeline and the node runtime forward identically.
///
/// `resource_level` is the caller's memo of `from`'s resource level: an
/// empty memo is filled on the first utility-weighted selection, from the
/// pinned level or by sampling PeerPopulation::kResourceSample peers; a
/// filled one is reused.  RNG draws, in order: none for kNssa or when
/// every candidate is wanted; kSsaRandom draws the index sample;
/// kSsaUtility samples the level if the memo is empty and the level is
/// not pinned, then draws the weighted sample.
std::vector<overlay::PeerId> select_forward_targets(
    const AdvertisementOptions& options,
    const overlay::PeerPopulation& population, overlay::PeerId from,
    const std::vector<overlay::PeerId>& neighbors, overlay::PeerId exclude,
    std::optional<double>& resource_level, util::Rng& rng);

class AdvertisementEngine {
 public:
  AdvertisementEngine(sim::Simulator& simulator,
                      const overlay::PeerPopulation& population,
                      const overlay::OverlayGraph& graph,
                      AdvertisementOptions options, util::Rng& rng);

  /// Runs one full announcement from `rendezvous` to quiescence.
  /// Advertisement message counts are also added to `stats` if non-null.
  AdvertisementState announce(overlay::PeerId rendezvous,
                              MessageStats* stats = nullptr);

  const AdvertisementOptions& options() const { return options_; }

 private:
  sim::Simulator* simulator_;
  const overlay::PeerPopulation* population_;
  const overlay::OverlayGraph* graph_;
  AdvertisementOptions options_;
  util::Rng rng_;
  /// Resource-level memo per forwarder, filled on its first utility
  /// selection and kept for this engine's lifetime.
  std::vector<std::optional<double>> resource_level_;
};

}  // namespace groupcast::core
