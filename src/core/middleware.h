// GroupCastMiddleware — the public façade of the library.
//
// A deployment — the IP underlay, the peer population with GNP coordinates
// and Table 1 capacities, the overlay (GroupCast utility-aware, the random
// power-law baseline or the two-tier variant) — is built once into an
// immutable DeploymentSnapshot.  A middleware is a thin view of one: it
// adds its own RNG stream and simulator and runs the protocol engines on
// the shared world.  Applications (see examples/) use it as:
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

/// A built deployment — the world every middleware runs on.
///
/// make_snapshot() builds it: underlay generation, IP routing, the GNP
/// embedding, the host cache and the peer_count bootstrap joins, then
/// connectivity repair.  After that nothing mutates it, so any number of
/// GroupCastMiddleware instances, on any threads, share one world through
/// shared_ptr<const ...> and copy none of it.  Sweeps whose cells share a
/// MiddlewareConfig build the world once and run every cell on it; each
/// run is bit-identical to a fresh construction (same RNG stream
/// position, same overlay graph, same construction-phase counters and
/// trace events, which the middleware replays from `joins`).  See
/// docs/PERFORMANCE.md.
struct DeploymentSnapshot {
  MiddlewareConfig config;
  std::shared_ptr<const net::UnderlayTopology> underlay;
  std::shared_ptr<const net::IpRouting> routing;
  std::shared_ptr<const overlay::PeerPopulation> population;
  std::unique_ptr<const overlay::OverlayGraph> graph;
  /// Every peer is registered.  Nothing reads it after the build yet; the
  /// planned epoch repair of dead neighbours will look peers up in it.
  std::unique_ptr<const overlay::HostCacheServer> host_cache;
  /// Null in a make_snapshot() world: the bootstrap is a build-time
  /// object.  perfbench's layer-by-layer build writes it and nothing reads
  /// it (ROADMAP: owed to the next change to the benchmark).
  std::unique_ptr<const overlay::GroupCastBootstrap> bootstrap;
  overlay::SupernodeLayout supernode_layout;
  /// The deployment's generator stream, positioned after the build; every
  /// middleware starts its own copy here.
  util::Rng rng{0};
  std::size_t repair_edges = 0;
  /// The build's joins in join order: every GroupCast join, or the
  /// supernode core tier's (moved here, which leaves
  /// `supernode_layout.core_joins` empty); empty for the power-law overlay.
  overlay::JoinLog joins;
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
  /// Builds a world for `config` and runs on it alone.
  explicit GroupCastMiddleware(const MiddlewareConfig& config);

  /// Runs on a shared world: starts its own copy of the world's RNG stream
  /// and its own simulator, and emits the construction-phase
  /// instrumentation — kPhaseBegin(kBootstrap), then kJoins and kPeerJoin
  /// per logged join — into the calling thread's registry and sink.  The
  /// result is indistinguishable from `GroupCastMiddleware(world->config)`.
  explicit GroupCastMiddleware(std::shared_ptr<const DeploymentSnapshot> world);

  /// Builds the deployment `config` names.  Emits no instrumentation.
  static std::shared_ptr<const DeploymentSnapshot> make_snapshot(
      const MiddlewareConfig& config);

  // Non-copyable (owns a simulator); movable is unnecessary.
  GroupCastMiddleware(const GroupCastMiddleware&) = delete;
  GroupCastMiddleware& operator=(const GroupCastMiddleware&) = delete;

  const MiddlewareConfig& config() const { return world_->config; }
  const net::UnderlayTopology& underlay() const { return *world_->underlay; }
  const net::IpRouting& routing() const { return *world_->routing; }
  const overlay::PeerPopulation& population() const {
    return *world_->population;
  }
  const overlay::OverlayGraph& graph() const { return *world_->graph; }
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
    return GroupSession(population(), group.tree);
  }

  /// Number of repair edges the build had to add to make the overlay
  /// connected (0 in the common case; see DESIGN.md).
  std::size_t connectivity_repair_edges() const {
    return world_->repair_edges;
  }

  /// Tier assignment; only populated for OverlayKind::kSupernode.
  const overlay::SupernodeLayout& supernode_layout() const {
    return world_->supernode_layout;
  }

 private:
  std::shared_ptr<const DeploymentSnapshot> world_;
  util::Rng rng_;
  sim::Simulator simulator_;
};

}  // namespace groupcast::core
