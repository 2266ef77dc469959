// GroupCastMiddleware — the public façade of the library.
//
// One object owns a complete simulated deployment: the IP underlay, the
// peer population with GNP coordinates and Table 1 capacities, the overlay
// (GroupCast utility-aware or the random power-law baseline), and the
// protocol engines.  Applications (see examples/) use it as:
//
//   core::MiddlewareConfig config;
//   config.peer_count = 2000;
//   core::GroupCastMiddleware middleware(config);
//   auto rendezvous = middleware.pick_rendezvous();
//   auto group = middleware.establish_group(rendezvous, subscribers);
//   auto session = middleware.session(group);
//   auto result = session.disseminate(rendezvous);
#pragma once

#include <memory>
#include <vector>

#include "core/advertisement.h"
#include "core/group_session.h"
#include "core/subscription.h"
#include "overlay/bootstrap.h"
#include "overlay/plod.h"
#include "overlay/supernode.h"
#include "trace/counters.h"
#include "trace/event.h"

namespace groupcast::core {

/// Overlay architectures the middleware can stand up:
///  * kGroupCast       — the paper's flat utility-aware overlay;
///  * kRandomPowerLaw  — the PLOD baseline;
///  * kSupernode       — the two-tier variant of Section 6 (future work).
enum class OverlayKind { kGroupCast, kRandomPowerLaw, kSupernode };

const char* to_string(OverlayKind kind);

/// IP underlay model: GT-ITM transit-stub (the paper's) or Waxman
/// (the ablation alternative).
enum class UnderlayModel { kTransitStub, kWaxman };

struct MiddlewareConfig {
  std::size_t peer_count = 1000;
  std::uint64_t seed = 1;
  OverlayKind overlay = OverlayKind::kGroupCast;
  UnderlayModel underlay_model = UnderlayModel::kTransitStub;

  /// Underlay sizing: roughly one stub router per this many peers.
  std::size_t peers_per_router = 24;

  overlay::PopulationConfig population;     // peer_count is overridden
  overlay::HostCacheOptions host_cache;
  overlay::BootstrapOptions bootstrap;
  AdvertisementOptions advertisement;
  SubscriptionOptions subscription;

  /// Equal configs build bit-identical deployments.
  friend bool operator==(const MiddlewareConfig&,
                         const MiddlewareConfig&) = default;
};

/// A fully-constructed deployment frozen right after bootstrap.
///
/// Building the world — underlay generation, the GNP embedding, and
/// peer_count bootstrap joins — dominates the wall clock of parameter
/// sweeps whose cells share a MiddlewareConfig.  make_snapshot() pays
/// that cost once; the forking constructor then stamps out independent
/// GroupCastMiddleware instances that are bit-identical to a fresh
/// construction: same RNG stream positions (middleware, bootstrap, host
/// cache), same overlay graph, and the same construction-phase counters
/// and trace events (recorded here and replayed into the forking run's
/// registry/sink).  See docs/PERFORMANCE.md.
///
/// Create with GroupCastMiddleware::make_snapshot(); treat as opaque and
/// share via shared_ptr<const ...> — forks only read it.
struct DeploymentSnapshot {
  MiddlewareConfig config;
  std::shared_ptr<const net::UnderlayTopology> underlay;
  std::shared_ptr<const net::IpRouting> routing;
  std::shared_ptr<const overlay::PeerPopulation> population;
  std::unique_ptr<const overlay::OverlayGraph> graph;
  std::unique_ptr<const overlay::HostCacheServer> host_cache;
  std::unique_ptr<const overlay::GroupCastBootstrap> bootstrap;
  overlay::SupernodeLayout supernode_layout;
  /// Post-construction state of the deployment's generator stream.
  util::Rng rng{0};
  std::size_t repair_edges = 0;
  /// Counters and trace events construction emitted, replayed per fork.
  trace::CounterSnapshot counters;
  std::vector<trace::TraceEvent> events;
};

/// One established communication group.
struct GroupHandle {
  AdvertisementState advert;
  SpanningTree tree;
  SubscriptionReport report;
  MessageStats stats;

  GroupHandle(AdvertisementState a, SpanningTree t)
      : advert(std::move(a)), tree(std::move(t)) {}
};

class GroupCastMiddleware {
 public:
  explicit GroupCastMiddleware(const MiddlewareConfig& config);

  /// Forks a snapshot: shares the immutable underlay / routing /
  /// population, copies the mutable overlay graph, host cache and
  /// bootstrap protocol state, restores the post-construction RNG
  /// streams, and replays the recorded construction-phase counters and
  /// trace events into the calling thread's registry / sink.  The result
  /// is indistinguishable from `GroupCastMiddleware(snapshot->config)`.
  explicit GroupCastMiddleware(
      std::shared_ptr<const DeploymentSnapshot> snapshot);

  /// Builds a deployment for `config` once and freezes it for forking.
  /// Construction runs under a private counter registry and trace sink so
  /// the recording never leaks into (or reads from) the caller's; the
  /// captured instrumentation replays per fork instead.
  static std::shared_ptr<const DeploymentSnapshot> make_snapshot(
      const MiddlewareConfig& config);

  // Non-copyable (owns large immutable state); movable is unnecessary.
  GroupCastMiddleware(const GroupCastMiddleware&) = delete;
  GroupCastMiddleware& operator=(const GroupCastMiddleware&) = delete;

  const MiddlewareConfig& config() const { return config_; }
  const net::UnderlayTopology& underlay() const { return *underlay_; }
  const net::IpRouting& routing() const { return *routing_; }
  const overlay::PeerPopulation& population() const { return *population_; }
  const overlay::OverlayGraph& graph() const { return *graph_; }
  sim::Simulator& simulator() { return simulator_; }
  util::Rng& rng() { return rng_; }

  /// Selects a rendezvous point with a random walk over the overlay,
  /// returning the most capable peer visited (Section 2.2, Step 1).
  overlay::PeerId pick_rendezvous();

  /// Runs the full announcement + subscription pipeline for one group.
  GroupHandle establish_group(overlay::PeerId rendezvous,
                              const std::vector<overlay::PeerId>& subscribers);

  /// Convenience: random rendezvous (via walk) + `group_size` random
  /// distinct subscribers.
  GroupHandle establish_random_group(std::size_t group_size);

  /// A dissemination session over an established group's tree.  The handle
  /// must outlive the session.
  GroupSession session(const GroupHandle& group) const {
    return GroupSession(*population_, group.tree);
  }

  /// Number of repair edges the constructor had to add to make the overlay
  /// connected (0 in the common case; see DESIGN.md).
  std::size_t connectivity_repair_edges() const { return repair_edges_; }

  /// Tier assignment; only populated for OverlayKind::kSupernode.
  const overlay::SupernodeLayout& supernode_layout() const {
    return supernode_layout_;
  }

 private:
  /// Builds the configured overlay.  A GroupCast build fits the
  /// `unfitted` population's coordinates alongside its joins; the other
  /// kinds get a fitted population and pass null.
  void build_overlay(overlay::PeerPopulation* unfitted);
  std::size_t ensure_connected();

  MiddlewareConfig config_;
  util::Rng rng_;
  sim::Simulator simulator_;
  // Immutable after construction and therefore shared between forks of a
  // DeploymentSnapshot; mutable structures below stay per-instance.
  std::shared_ptr<const net::UnderlayTopology> underlay_;
  std::shared_ptr<const net::IpRouting> routing_;
  std::shared_ptr<const overlay::PeerPopulation> population_;
  std::unique_ptr<overlay::OverlayGraph> graph_;
  std::unique_ptr<overlay::HostCacheServer> host_cache_;
  std::unique_ptr<overlay::GroupCastBootstrap> bootstrap_;
  overlay::SupernodeLayout supernode_layout_;
  std::size_t repair_edges_ = 0;
};

}  // namespace groupcast::core
