// GroupCastNode — the per-peer middleware runtime.
//
// While AdvertisementEngine / SubscriptionProtocol compute whole-overlay
// outcomes centrally (cheap for the Section 4 parameter sweeps), this class
// is the *deployable* form of the same protocols: every peer runs one
// GroupCastNode, all coordination happens through typed messages over the
// Transport, and no node touches another node's state.  Applications sit
// on top of exactly this API:
//
//   GroupCastNode node(self, transport, graph, options, rng);
//   node.start();
//   node.on_data([](GroupId g, std::uint64_t id, PeerId origin) { ... });
//   node.subscribe(group);
//   node.publish(group, payload_id);
//
// The engine and the node forward advertisements through one SSA/NSSA
// decision, core::select_forward_targets; each keeps its own
// resource-level memo (per group in the engine, per lifetime here).
//
// Control-plane reliability (docs/ROBUSTNESS.md): joins and ripple
// searches run through a ReliableExchange retry ladder — join the advert
// parent, escalate to ripple re-search with widening TTL, then to the
// rendezvous point and its deterministic replicas — so a lost JoinAck
// delays a subscription instead of stranding it.  Tree-edge heartbeats
// (off by default; enable via NodeOptions::heartbeat_interval) detect dead
// parents with the paper's two-miss rule and re-run the same ladder to
// re-attach the orphaned subtree, guarded against cycles by attach-point
// depths carried on JoinAck / RippleHit / ParentBeat.
//
// Two self-contained sub-protocols are classes of their own, each
// reaching back into the node through a small host interface: the
// reliable data plane (core/reliable_edge.h) and leased rendezvous
// replication (core/lease_replica.h).  Tree-edge failure detection is a
// third, core/liveness.h's EdgeLiveness: the stamps, beat suppression,
// deadlines, news window and adaptive widening.  The node keeps the tree,
// the ladder, the shared heartbeat tick and what a beat means (depth and
// backup on ParentBeat, when to answer ParentLost or Leave), advert/ripple
// handling and payload dedup and forwarding.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/advertisement.h"
#include "core/lease_replica.h"
#include "core/liveness.h"
#include "core/reliable_edge.h"
#include "core/reliable_exchange.h"
#include "core/shared_tick.h"
#include "core/transport.h"
#include "overlay/graph.h"
#include "util/flat_set.h"
#include "util/require.h"

namespace groupcast::core {

/// Sentinel depth of a node that is not (or not yet) on a tree.
inline constexpr std::uint32_t kUnknownDepth = 0xFFFFFFFFu;

struct NodeOptions {
  /// Scheme + fan-out the node uses when forwarding advertisements.
  AdvertisementOptions advertisement;
  /// TTL of the first ripple search; each retry widens it by one hop.
  std::size_t ripple_ttl = 2;
  /// Per-attempt timeout / backoff / attempt budget of every control-plane
  /// exchange (one exchange per ladder rung).
  RetryPolicy retry;
  /// Rendezvous replicas tried when the rendezvous itself is unresponsive.
  std::size_t rendezvous_replicas = 2;
  /// Tree-edge heartbeat period; zero() disables liveness probing (the
  /// default, so `Simulator::run()` still drains in non-churn tests).
  sim::SimTime heartbeat_interval = sim::SimTime::zero();
  /// Heartbeat intervals without hearing from the parent before it is
  /// declared dead (the paper's two-miss rule).
  std::size_t missed_heartbeats_to_fail = 2;
  /// Adaptive failure detection (docs/ROBUSTNESS.md, "Flow control &
  /// adaptive detection"): derive the heartbeat-miss threshold and the
  /// NACK cadence from online per-edge loss / repair-time EWMAs instead
  /// of the fixed constants above.  `missed_heartbeats_to_fail` becomes
  /// the floor the estimator widens from.  Off by default — detection
  /// then uses exactly the configured constants, byte-identical.
  bool adaptive = false;
  /// NACK/retransmit reliability for group data on tree edges.
  DataReliabilityOptions reliability;
  /// Rendezvous replication: leased leadership with quorum handoff.
  ReplicationOptions replication;

  friend bool operator==(const NodeOptions&, const NodeOptions&) = default;
};

class GroupCastNode : private ReliableEdge::Host, private LeaseReplica::Host {
 public:
  using DataCallback =
      std::function<void(GroupId, std::uint64_t payload_id,
                         overlay::PeerId origin)>;
  /// Chunk delivery: the ChunkMsg carries stream / chunk_id / deadline /
  /// size; epoch and seq are zeroed (sequencing is edge-local transport
  /// detail, not application-visible).  `hops` holds the arrival depth.
  using ChunkCallback = std::function<void(GroupId, const ChunkMsg&)>;
  using SubscribeCallback = std::function<void(GroupId, bool success)>;

  /// Reads `options` through the shared pointer for its whole life, so
  /// nodes built with equal options can share one copy.
  GroupCastNode(overlay::PeerId self, Transport& transport,
                const overlay::OverlayGraph& graph,
                std::shared_ptr<const NodeOptions> options, util::Rng& rng);
  /// A node with an options copy of its own.
  GroupCastNode(overlay::PeerId self, Transport& transport,
                const overlay::OverlayGraph& graph, NodeOptions options,
                util::Rng& rng)
      : GroupCastNode(self, transport, graph,
                      std::make_shared<const NodeOptions>(std::move(options)),
                      rng) {}
  ~GroupCastNode();

  GroupCastNode(const GroupCastNode&) = delete;
  GroupCastNode& operator=(const GroupCastNode&) = delete;

  /// Attaches to the transport.  Must be called before any other method.
  void start();
  /// Graceful detach: incoming messages stop being delivered, but messages
  /// this node already sent (e.g. a Leave fired just before stopping)
  /// still reach their peers.
  void stop();
  /// Ungraceful detach: in-flight messages to *and from* this node are
  /// dropped — the form of departure a fault plan injects.
  void crash();
  bool running() const { return running_; }

  overlay::PeerId id() const { return self_; }

  /// Becomes the rendezvous point of `group` and floods the advertisement.
  void create_group(GroupId group);

  /// Subscribes to `group`: reverse-path join if the advertisement is held,
  /// ripple search otherwise, with retries and rung escalation.  Outcome is
  /// reported via on_subscribe_result.
  void subscribe(GroupId group);

  /// Leaves the group.  A leaf detaches from its parent; a relay with
  /// children stays on the tree as a pure forwarder.
  void unsubscribe(GroupId group);

  /// Publishes a payload into the group's tree.  Requires being on the
  /// tree (subscribed, or the rendezvous).
  void publish(GroupId group, std::uint64_t payload_id);

  /// Publishes one stream chunk into the group's tree (streaming
  /// workloads).  Same tree-membership requirement as publish().  The
  /// chunk rides the reliable data plane when reliability is enabled and
  /// the fire-and-forget path otherwise; `deadline` is the absolute sim
  /// time after which delivery counts as late, and `payload_bytes` is the
  /// simulated chunk size (drives bandwidth pacing, no bytes carried).
  void publish_chunk(GroupId group, std::uint32_t stream,
                     std::uint32_t chunk_id, sim::SimTime deadline,
                     std::uint32_t payload_bytes);

  void on_data(DataCallback callback) {
    callbacks().data = std::move(callback);
  }
  void on_chunk(ChunkCallback callback) {
    callbacks().chunk = std::move(callback);
  }
  void on_subscribe_result(SubscribeCallback callback) {
    callbacks().subscribe = std::move(callback);
  }

  // ----------------------------------------------------------- inspection
  // A group this node holds no tree record of reads as an empty record.
  bool has_advertisement(GroupId group) const {
    const GroupRecord* entry = find(group);
    return entry != nullptr && entry->has_advert();
  }
  bool is_subscribed(GroupId group) const {
    return tree_view(group).subscribed && on_tree(group);
  }
  bool on_tree(GroupId group) const { return tree_view(group).on_tree(); }
  /// Tree parent; self for the rendezvous.  Requires on_tree(group).
  overlay::PeerId tree_parent(GroupId group) const {
    GC_REQUIRE(on_tree(group));
    return tree_view(group).tree_parent;
  }
  std::vector<overlay::PeerId> tree_children(GroupId group) const;
  /// Calls `visit(child)` for each tree child of `group`, in join order,
  /// without allocating (tree_children() copies them).
  template <typename Visit>
  void for_each_tree_child(GroupId group, Visit&& visit) const {
    for (const auto& child : tree_view(group).children) visit(child.peer);
  }
  /// Depth on the tree (root = 0); kUnknownDepth when off the tree.
  std::uint32_t tree_depth(GroupId group) const {
    return on_tree(group) ? tree_view(group).depth : kUnknownDepth;
  }
  /// True while a subscribe / recovery ladder has an exchange in flight.
  bool exchange_pending(GroupId group) const {
    return tree_view(group).exchange != ReliableExchange::kNoToken;
  }
  /// Payload entries currently held for retransmission on the directed
  /// edge to `peer` (0 when reliability is off or no such edge exists).
  std::size_t send_buffer_depth(GroupId group, overlay::PeerId peer) const {
    return ReliableEdge::buffer_depth(tree_view(group), peer);
  }
  /// Payloads queued behind a closed flow-control window on the directed
  /// edge to `peer` (always 0 with flow control off).
  std::size_t pending_depth(GroupId group, overlay::PeerId peer) const {
    return ReliableEdge::pending_depth(tree_view(group), peer);
  }
  /// Sequence the reliable edge from `peer` expects next (0 when none).
  std::uint64_t expected_seq(GroupId group, overlay::PeerId peer) const {
    return ReliableEdge::expected_seq(tree_view(group), peer);
  }
  /// Estimated resident bytes of this node's protocol state: the object,
  /// its call-back block and its group table by capacity, each tree
  /// record with its vectors and dedup tables by capacity, plus what the
  /// data plane and the lease replica each report for themselves.  The
  /// options are shared between nodes and not counted.  Feeds the
  /// bytes_per_peer gauge.
  std::size_t memory_bytes() const;
  /// What this node holds for a group: nothing, the compact record of a
  /// peer that heard of it, or that plus the tree record.
  enum class Footprint : std::uint8_t { kNone, kCompact, kTree };
  Footprint footprint(GroupId group) const {
    const GroupRecord* entry = find(group);
    if (entry == nullptr) return Footprint::kNone;
    return entry->tree ? Footprint::kTree : Footprint::kCompact;
  }

  // ------------------------------------------- replication inspection
  /// This node's replica state of the group (core/lease_replica.h): its
  /// membership, the lease, the highest committed epoch it knows, that
  /// epoch's leader and the log sorted by epoch.  Empty with
  /// ReplicationOptions off or before the node has heard of the group.
  const ReplState& replica_state(GroupId group) const {
    return tree_view(group).repl;
  }
  /// True while this member holds (believes it holds) the group lease.
  bool is_leaseholder(GroupId group) const {
    return replica_state(group).leaseholder;
  }
  /// Rung-0 backup attach target learned from JoinAcks and parent beats
  /// (kNoPeer when replication is off or none was offered).
  overlay::PeerId backup_parent(GroupId group) const {
    return tree_view(group).backup_parent;
  }

 private:
  /// Ladder rungs, tried in order (skipping inapplicable ones).  kBackup
  /// (the precomputed grandparent, ReplicationOptions only) is rung 0 —
  /// one message instead of a search, targeting sub-heartbeat orphan time.
  enum class Rung : std::uint8_t { kBackup, kAdvertParent, kRipple,
                                   kRendezvous };

  /// The tree half of a group record: everything a peer needs once it
  /// takes a tree role (root, relay, child, or the parent of a deferred
  /// join) or starts a ladder.  Most peers that hear of a group never do
  /// (docs/PERFORMANCE.md, "Sharded execution & memory budget"), so it is
  /// heap-held and created on that first use, then kept for the node's
  /// lifetime: a folded peer's edge epochs, payload dedup and search round
  /// must outlive the fold.  The group's reliable edges are its base, so
  /// the data plane's call-backs hand the record straight back.
  struct TreeState : ReliableEdge::Links {
    /// A tree child and this end's liveness stamps of its edge.
    struct Child {
      overlay::PeerId peer = overlay::kNoPeer;
      EdgeStamps link;
    };

    /// On the tree exactly while a parent is set (self at the root).
    bool on_tree() const { return tree_parent != overlay::kNoPeer; }
    Child* find_child(overlay::PeerId peer) {
      for (auto& child : children) {
        if (child.peer == peer) return &child;
      }
      return nullptr;
    }
    /// This end's stamps of the edge to child `peer`, or nullptr.
    EdgeStamps* child_edge(overlay::PeerId peer) {
      Child* child = find_child(peer);
      return child != nullptr ? &child->link : nullptr;
    }
    /// The same for the parent, or else a child; nullptr for neither.
    EdgeStamps* edge(overlay::PeerId peer) {
      return peer == tree_parent ? &liveness.parent : child_edge(peer);
    }
    /// True while `child`'s join waits for this node to attach.
    bool awaits_ack(overlay::PeerId child) const {
      return std::find(pending_acks.begin(), pending_acks.end(), child) !=
             pending_acks.end();
    }

    bool subscribed = false;
    bool search_pending = false;
    overlay::PeerId tree_parent = overlay::kNoPeer;
    std::uint32_t depth = kUnknownDepth;
    std::vector<Child> children;  // in join order
    // One sequence window per (origin, stream) instead of a slot per
    // payload (util/flat_set.h): a stream's chunks cost 24 bytes however
    // many of them pass through.
    util::WindowSet64 seen_payloads;

    // --- retry ladder (subscribe + orphan recovery share it) ---
    ReliableExchange::Token exchange = ReliableExchange::kNoToken;
    Rung rung = Rung::kAdvertParent;
    std::uint32_t search_round = 0;
    /// A peer the ladder must not target (the parent just declared dead).
    overlay::PeerId avoid = overlay::kNoPeer;
    /// Orphan cycle guard: only attach under peers of depth <= this.
    /// kUnknownDepth (the default) accepts any attach point.
    std::uint32_t attach_depth_limit = kUnknownDepth;
    bool recovering = false;      // ladder re-attaches an orphaned position
    bool dissolved_once = false;  // second terminal give-up is final
    std::size_t ladder_attempts = 0;  // sends since the ladder started
    /// Joins accepted while not yet on the tree; acked after attaching.
    std::vector<overlay::PeerId> pending_acks;

    // --- tree-edge heartbeats ---
    bool heartbeat_scheduled = false;
    TreeLiveness liveness;

    // --- rendezvous replication (ReplicationOptions) ---
    ReplState repl;
    /// Rung-0 attach target: this node's grandparent, as last offered on
    /// a JoinAck or parent beat (kNoPeer with replication off).
    overlay::PeerId backup_parent = overlay::kNoPeer;
  };

  /// What every peer that hears of a group keeps: 40 bytes, where the
  /// tree record it usually never needs is 432.
  struct GroupRecord {
    GroupId group = 0;
    overlay::PeerId rendezvous = overlay::kNoPeer;
    overlay::PeerId advert_parent = overlay::kNoPeer;  // self at rendezvous
    util::FlatSet64 seen_queries;  // origin<<32 | round
    std::unique_ptr<TreeState> tree;  // null until the first tree role

    bool has_advert() const { return advert_parent != overlay::kNoPeer; }
    bool on_tree() const { return tree != nullptr && tree->on_tree(); }
  };

  /// Shared teardown behind stop() / crash().
  void detach(DetachMode mode);

  /// Hands a message to the handler for its type, below.
  void handle(const Envelope& envelope);
  void handle(const Envelope& envelope, const AdvertiseMsg& msg);
  void handle(const Envelope& envelope, const JoinMsg& msg);
  void handle(const Envelope& envelope, const JoinAckMsg& msg);
  void handle(const Envelope& envelope, const RippleQueryMsg& msg);
  void handle(const Envelope& envelope, const RippleHitMsg& msg);
  void handle(const Envelope& envelope, const LeaveMsg& msg);
  void handle(const Envelope& envelope, const HeartbeatMsg& msg);
  void handle(const Envelope& envelope, const ParentBeatMsg& msg);
  void handle(const Envelope& envelope, const ParentLostMsg& msg);
  /// Every other type: lease traffic goes to the replica, the rest to the
  /// data plane.
  template <typename Msg>
  void handle(const Envelope& envelope, const Msg& msg);

  // --- ReliableEdge::Host ---
  ReliableEdge::Links* links(GroupId group) override;
  /// Accepted payload (any path): dedup by (origin, id), deliver to the
  /// application, and forward along the tree away from `via`.  `hops` is
  /// the tree depth this copy traversed (provenance + hop histogram).
  void deliver(GroupId group, ReliableEdge::Links& links, overlay::PeerId via,
               const BufferedPayload& payload) override;
  overlay::PeerId upstream(const ReliableEdge::Links& links) const override;
  void sent(ReliableEdge::Links& links, overlay::PeerId to) override {
    if (EdgeStamps* edge = static_cast<TreeState&>(links).edge(to)) {
      edge->sent(now());
    }
  }

  // --- LeaseReplica::Host ---
  /// A replication member keeps its replica state in its tree record,
  /// created on the first lease message or group creation.
  ReplState& replica(GroupId group) override { return tree_of(group).repl; }
  /// Makes this node the group's acting tree root (leaving any current
  /// parent, refreshing children) — the tree half of a committed handoff.
  void root_self(GroupId group) override;
  void superseded(GroupId group) override;

  /// Sends a payload this node originates to every tree neighbour.
  void publish_payload(GroupId group, const BufferedPayload& payload);

  // --- tree position ---
  /// A pure relay (unsubscribed, childless, not the root) leaves the tree:
  /// tells its parent and forgets the edge.  No-op for any other node.
  void maybe_fold(GroupId group, TreeState& tree);
  /// After (re)gaining a depth: acks the joins deferred while unattached
  /// (each with a fresh reliable edge) and pushes the depth to the other
  /// children, so descendant depths converge in one round.
  void ack_children(GroupId group, TreeState& tree);
  /// The grandparent this node offers children as a rung-0 backup: its
  /// own tree parent, or kNoPeer when it is the root / replication is off
  /// (a root's child has no live grandparent to fall back on).
  overlay::PeerId offered_backup(const TreeState& tree) const;
  /// Forgets a child: its tree edge, any deferred ack and its reliable
  /// edges.
  void drop_child(TreeState& tree, overlay::PeerId child);

  // --- retry ladder ---
  /// Starts (or restarts) the ladder at its first applicable rung.
  void start_ladder(GroupId group);
  /// True if the advert parent is a usable first regular rung.
  /// Requires the record's tree.
  bool advert_rung_ok(const GroupRecord& record) const;
  /// Opens the reliable exchange for the current rung.
  void run_rung(GroupId group);
  /// Current rung exhausted its attempts: next rung or terminal failure.
  void advance_rung(GroupId group);
  void terminal_failure(GroupId group);
  /// True if the ladder may attach under `target` at `target_depth`.
  bool attach_allowed(const TreeState& tree, overlay::PeerId target,
                      std::uint32_t target_depth) const;
  /// Successful attach bookkeeping shared by every ack path.  `backup` is
  /// the grandparent the acking parent offered for rung 0 (kNoPeer when
  /// replication is off or the parent is the root).
  void complete_attach(GroupId group, overlay::PeerId parent,
                       std::uint32_t parent_depth,
                       overlay::PeerId backup = overlay::kNoPeer);

  // --- heartbeats / failure detection ---
  /// The tree edges' failure-detection rule, read from the options.
  EdgeLiveness liveness() const {
    return EdgeLiveness(options_->heartbeat_interval,
                        options_->missed_heartbeats_to_fail,
                        options_->adaptive);
  }
  /// A message of the group arrived over `edge` (from `from`), which
  /// stands in for a beat.  With no edge the sender gets ParentLost: it
  /// may believe we are its parent, and if not it ignores it.  Returns
  /// whether there was an edge.
  bool heard_from(GroupId group, EdgeStamps* edge, overlay::PeerId from);
  /// This node's depth or offered backup changed: beats carry both, so
  /// every acked child gets one on every tick of the next detection
  /// window, traffic or not (and one now with `beat_now`).
  void position_changed(GroupId group, TreeState& tree, bool beat_now);
  /// The beat to the parent, and the beat to one child, carrying depth
  /// and backup.
  void send_heartbeat(GroupId group, TreeState& tree);
  void send_parent_beat(GroupId group, TreeState& tree,
                        TreeState::Child& child);
  /// Enrols `group` in the node's shared heartbeat tick while it holds a
  /// tree role.
  void maybe_schedule_heartbeat(GroupId group);
  static void heartbeat_thunk(void* context, std::uint64_t);
  void heartbeat_tick(GroupId group);
  /// The parent is gone: become an orphan and re-run the ladder.
  void begin_recovery(GroupId group, overlay::PeerId dead_parent);

  // --- the group table ---
  /// The group's record, or nullptr.  Lookup never inserts: a message
  /// for a group without a record is handled as if by a default record.
  GroupRecord* find(GroupId group);
  const GroupRecord* find(GroupId group) const;
  TreeState* find_tree(GroupId group);
  /// The group's tree record, or an empty one when it has none.
  const TreeState& tree_view(GroupId group) const;
  /// The group's record, created compact on first use (hearing an advert
  /// or a ripple query, creating or subscribing to the group).
  GroupRecord& record(GroupId group);
  /// The group's tree record, created on first use.
  TreeState& tree_of(GroupRecord& record);
  TreeState& tree_of(GroupId group) { return tree_of(record(group)); }
  sim::SimTime now() const;

  /// The application call-backs, in one block allocated when the first
  /// is set: most nodes (relays, bystanders) never get one.
  struct Callbacks {
    DataCallback data;
    ChunkCallback chunk;
    SubscribeCallback subscribe;
  };
  Callbacks& callbacks() {
    if (!callbacks_) callbacks_ = std::make_unique<Callbacks>();
    return *callbacks_;
  }
  void report_subscribe(GroupId group, bool success) {
    if (callbacks_ && callbacks_->subscribe) {
      callbacks_->subscribe(group, success);
    }
  }

  overlay::PeerId self_;
  Transport* transport_;
  const overlay::OverlayGraph* graph_;
  /// Shared, read-only: NodeRuntime builds one copy per distinct set.
  std::shared_ptr<const NodeOptions> options_;
  util::Rng rng_;
  ReliableExchange exchange_;
  ReliableEdge edges_;
  /// Constructed only with replication enabled, after the control
  /// exchange: its quorum exchange splits rng_, which must not happen when
  /// the flag is off.
  std::unique_ptr<LeaseReplica> lease_;
  bool running_ = false;
  /// SSA resource-level memo: sampled on the first utility-weighted
  /// forwarding decision, kept for the node's lifetime.
  std::optional<double> resource_level_;
  SharedTick heartbeats_;
  /// Flat: a node is in a handful of groups, so a scan beats hashing and
  /// costs no per-entry node.  Records move when the table grows; tree
  /// records do not, so code that calls back into the application keeps
  /// hold of the tree record only.
  std::vector<GroupRecord> groups_;
  std::unique_ptr<Callbacks> callbacks_;
};

}  // namespace groupcast::core
