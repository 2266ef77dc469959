#include "core/node.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

namespace {
/// Dedup key for payloads: origin in the high bits, id in the low bits.
std::uint64_t payload_key(overlay::PeerId origin, std::uint64_t id) {
  return (static_cast<std::uint64_t>(origin) << 40) ^ id;
}

/// Dedup key for ripple queries: one slot per (origin, search round), so
/// a re-search by the same origin is not swallowed as a duplicate.
std::uint64_t query_key(overlay::PeerId origin, std::uint32_t round) {
  return (static_cast<std::uint64_t>(origin) << 32) | round;
}

std::shared_ptr<const NodeOptions> non_null(
    std::shared_ptr<const NodeOptions> options) {
  GC_REQUIRE(options != nullptr);
  return options;
}

void erase_value(std::vector<overlay::PeerId>& v, overlay::PeerId value) {
  const auto it = std::find(v.begin(), v.end(), value);
  if (it != v.end()) v.erase(it);
}
}  // namespace

GroupCastNode::GroupCastNode(overlay::PeerId self, Transport& transport,
                             const overlay::OverlayGraph& graph,
                             std::shared_ptr<const NodeOptions> options,
                             util::Rng& rng)
    : self_(self),
      transport_(&transport),
      graph_(&graph),
      options_(non_null(std::move(options))),
      rng_(rng.split()),
      exchange_(transport.simulator_for(self), self, options_->retry, rng_),
      // Adaptive detection paces the data plane's NACKs too; building the
      // rule also validates the heartbeat options.
      edges_(*this, self, transport, options_->reliability,
             liveness().adaptive(), rng_) {
  GC_REQUIRE(self < transport.population().size());
  GC_REQUIRE(options_->ripple_ttl >= 1);
  if (options_->replication.enabled) {
    lease_ = std::make_unique<LeaseReplica>(
        static_cast<LeaseReplica::Host&>(*this), self, transport,
        options_->replication, rng_);
  }
}

GroupCastNode::~GroupCastNode() {
  if (running_) stop();
}

void GroupCastNode::start() {
  GC_REQUIRE_MSG(!running_, "node already started");
  transport_->register_node(self_,
                            [this](const Envelope& e) { handle(e); });
  running_ = true;
}

void GroupCastNode::stop() { detach(DetachMode::kGraceful); }

void GroupCastNode::crash() { detach(DetachMode::kCrash); }

void GroupCastNode::detach(DetachMode mode) {
  GC_REQUIRE_MSG(running_, "node not running");
  transport_->unregister_node(self_, mode);
  exchange_.cancel_all();
  if (lease_) lease_->stop();
  for (auto& entry : groups_) {
    if (!entry.tree) continue;
    entry.tree->exchange = ReliableExchange::kNoToken;
    // A departed node's edge timers must not fire into a dead runtime.
    edges_.cancel_timers(*entry.tree);
  }
  // A departed node stops probing: cancel the shared tick instead of
  // letting it fire into a dead runtime.
  heartbeats_.cancel(transport_->simulator_for(self_), [this](GroupId group) {
    tree_of(group).heartbeat_scheduled = false;
  });
  running_ = false;
}

sim::SimTime GroupCastNode::now() const {
  return transport_->simulator_for(self_).now();
}

// ------------------------------------------------------------ group table

GroupCastNode::GroupRecord* GroupCastNode::find(GroupId group) {
  for (auto& entry : groups_) {
    if (entry.group == group) return &entry;
  }
  return nullptr;
}

const GroupCastNode::GroupRecord* GroupCastNode::find(GroupId group) const {
  return const_cast<GroupCastNode*>(this)->find(group);
}

GroupCastNode::TreeState* GroupCastNode::find_tree(GroupId group) {
  GroupRecord* entry = find(group);
  return entry != nullptr ? entry->tree.get() : nullptr;
}

const GroupCastNode::TreeState& GroupCastNode::tree_view(
    GroupId group) const {
  static const TreeState kNoTree;
  const GroupRecord* entry = find(group);
  return entry != nullptr && entry->tree ? *entry->tree : kNoTree;
}

GroupCastNode::GroupRecord& GroupCastNode::record(GroupId group) {
  if (GroupRecord* entry = find(group)) return *entry;
  groups_.emplace_back().group = group;
  return groups_.back();
}

GroupCastNode::TreeState& GroupCastNode::tree_of(GroupRecord& record) {
  if (!record.tree) record.tree = std::make_unique<TreeState>();
  return *record.tree;
}

// ------------------------------------------------------------- public API

void GroupCastNode::create_group(GroupId group) {
  GC_REQUIRE(running_);
  auto& entry = record(group);
  GC_REQUIRE_MSG(!entry.has_advert(), "group already created or advertised");
  entry.rendezvous = self_;
  entry.advert_parent = self_;
  auto& tree = tree_of(entry);
  tree.subscribed = true;
  tree.tree_parent = self_;
  tree.depth = 0;
  for (const auto target : select_forward_targets(
           options_->advertisement, transport_->population(), self_,
           graph_->neighbors(self_), self_, resource_level_, rng_)) {
    transport_->send(
        self_, target,
        AdvertiseMsg{group, self_,
                     static_cast<std::uint32_t>(
                         options_->advertisement.ttl - 1)});
  }
  if (lease_) lease_->create(group, tree.repl);
}

void GroupCastNode::subscribe(GroupId group) {
  GC_REQUIRE(running_);
  auto& tree = tree_of(group);
  if (tree.on_tree()) {
    tree.subscribed = true;
    report_subscribe(group, true);
    return;
  }
  tree.subscribed = true;  // desired; effective once on the tree
  trace::counters().incr(self_, trace::CounterId::kSubscribeAttempts);
  if (tree.exchange != ReliableExchange::kNoToken) {
    return;  // a relay-chain ladder is already climbing; ride it
  }
  start_ladder(group);
}

void GroupCastNode::unsubscribe(GroupId group) {
  GC_REQUIRE(running_);
  TreeState* tree = find_tree(group);
  GC_REQUIRE_MSG(tree != nullptr && tree->subscribed,
                 "not subscribed to this group");
  tree->subscribed = false;
  if (tree->exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(tree->exchange);
    tree->exchange = ReliableExchange::kNoToken;
    tree->search_pending = false;
    tree->recovering = false;
  }
  // A leaf detaches; a relay (or the root) keeps forwarding for its
  // children.
  maybe_fold(group, *tree);
}

void GroupCastNode::publish(GroupId group, std::uint64_t payload_id) {
  BufferedPayload payload;
  payload.origin = self_;
  payload.payload_id = payload_id;
  payload.hops = 1;
  publish_payload(group, payload);
}

void GroupCastNode::publish_chunk(GroupId group, std::uint32_t stream,
                                  std::uint32_t chunk_id,
                                  sim::SimTime deadline,
                                  std::uint32_t payload_bytes) {
  GC_REQUIRE_MSG(stream < (1u << 31), "stream id must fit in 31 bits");
  BufferedPayload payload;
  payload.origin = self_;
  payload.payload_id = chunk_payload_id(stream, chunk_id);
  payload.hops = 1;
  payload.chunk = true;
  payload.deadline_us = deadline.as_micros();
  payload.chunk_bytes = payload_bytes;
  publish_payload(group, payload);
}

void GroupCastNode::publish_payload(GroupId group,
                                    const BufferedPayload& payload) {
  GC_REQUIRE(running_);
  TreeState* tree = find_tree(group);
  GC_REQUIRE_MSG(tree != nullptr && tree->on_tree(),
                 "publish requires tree membership");
  tree->seen_payloads.insert(payload_key(self_, payload.payload_id));
  if (payload.chunk) {
    trace::counters().incr(self_, trace::CounterId::kChunksPublished);
  }
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadPublished,
                       self_, trace::kNoNode,
                       trace::pack_provenance(self_, payload.payload_id, 0));
  if (tree->tree_parent != self_) {
    edges_.send(group, *tree, tree->tree_parent, payload);
  }
  for (const auto& child : tree->children) {
    edges_.send(group, *tree, child.peer, payload);
  }
}

// ------------------------------------------------------------ inspection

std::vector<overlay::PeerId> GroupCastNode::tree_children(
    GroupId group) const {
  std::vector<overlay::PeerId> peers;
  for_each_tree_child(
      group, [&peers](overlay::PeerId child) { peers.push_back(child); });
  return peers;
}

std::size_t GroupCastNode::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + groups_.capacity() * sizeof(GroupRecord);
  if (callbacks_) bytes += sizeof(Callbacks);
  if (lease_) bytes += lease_->memory_bytes();
  for (const auto& entry : groups_) {
    bytes += entry.seen_queries.memory_bytes();
    if (!entry.tree) continue;
    const TreeState& tree = *entry.tree;
    bytes += sizeof(TreeState);
    bytes += tree.children.capacity() * sizeof(TreeState::Child);
    bytes += tree.pending_acks.capacity() * sizeof(overlay::PeerId);
    bytes += tree.seen_payloads.memory_bytes();
    bytes += ReliableEdge::memory_bytes(tree);
    bytes += LeaseReplica::memory_bytes(tree.repl);
  }
  return bytes;
}

// ---------------------------------------------------------- tree position

void GroupCastNode::maybe_fold(GroupId group, TreeState& tree) {
  if (tree.subscribed || !tree.on_tree() || !tree.children.empty() ||
      tree.tree_parent == self_) {
    return;
  }
  transport_->send(self_, tree.tree_parent, LeaveMsg{group, self_});
  edges_.drop(tree, tree.tree_parent);
  tree.tree_parent = overlay::kNoPeer;
  tree.depth = kUnknownDepth;
}

void GroupCastNode::ack_children(GroupId group, TreeState& tree) {
  for (const auto child : tree.pending_acks) {
    transport_->send(self_, child,
                     JoinAckMsg{group, tree.depth, offered_backup(tree)});
    if (auto* acked = tree.find_child(child)) {
      // The child was last heard at its join, maybe long ago: the ack
      // starts its liveness clock afresh, so it is not pruned before its
      // first beat can arrive.
      acked->link.heard(now());
      acked->link.sent(now());
    }
    // The deferred ack completes the join handshake: give the child a
    // fresh edge incarnation so its expected sequence starts in sync.
    edges_.reopen(group, tree, child);
  }
  tree.pending_acks.clear();
  // The other children learn the new depth (and backup) from beats; the
  // JoinAcks above already carry it.
  if (tree.depth != kUnknownDepth) position_changed(group, tree, true);
}

overlay::PeerId GroupCastNode::offered_backup(const TreeState& tree) const {
  if (!options_->replication.enabled || !tree.on_tree() ||
      tree.tree_parent == self_) {
    return overlay::kNoPeer;  // roots have no grandparent to offer
  }
  return tree.tree_parent;
}

void GroupCastNode::drop_child(TreeState& tree, overlay::PeerId child) {
  std::erase_if(tree.children, [child](const TreeState::Child& c) {
    return c.peer == child;
  });
  erase_value(tree.pending_acks, child);
  // Edge state is kept per peer: a stale child entry for our own parent
  // (its join crossed ours) must not take the parent's edges with it.
  if (child != tree.tree_parent) edges_.drop(tree, child);
}

void GroupCastNode::root_self(GroupId group) {
  auto& tree = tree_of(group);
  if (tree.tree_parent == self_) return;
  if (tree.exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(tree.exchange);
    tree.exchange = ReliableExchange::kNoToken;
  }
  if (tree.on_tree()) {
    transport_->send(self_, tree.tree_parent, LeaveMsg{group, self_});
    edges_.drop(tree, tree.tree_parent);
  }
  tree.search_pending = false;
  tree.recovering = false;
  tree.tree_parent = self_;
  tree.depth = 0;
  tree.avoid = overlay::kNoPeer;
  tree.attach_depth_limit = kUnknownDepth;
  tree.dissolved_once = false;
  tree.backup_parent = overlay::kNoPeer;
  ack_children(group, tree);  // they learn the new depth root-style
  maybe_schedule_heartbeat(group);
}

void GroupCastNode::superseded(GroupId group) {
  // Heal reconciliation, tree half: a superseded acting root re-runs the
  // ladder to fold its whole subtree back under the new leader (its
  // depth-0 guard keeps it from attaching below its own descendants).
  const TreeState* tree = find_tree(group);
  if (tree != nullptr && tree->tree_parent == self_) {
    begin_recovery(group, overlay::kNoPeer);
  }
}

// ----------------------------------------------------------- retry ladder

bool GroupCastNode::attach_allowed(const TreeState& tree,
                                   overlay::PeerId target,
                                   std::uint32_t target_depth) const {
  if (target == self_ || target == tree.avoid) return false;
  if (tree.attach_depth_limit == kUnknownDepth) return true;
  // Guarded orphan: strict descendants carry a (possibly stale) depth of
  // at least ours + 1, so any target at our old depth or above the old
  // position is provably outside our own subtree.
  return target_depth != kUnknownDepth &&
         target_depth <= tree.attach_depth_limit;
}

bool GroupCastNode::advert_rung_ok(const GroupRecord& record) const {
  return record.has_advert() && record.advert_parent != self_ &&
         record.advert_parent != record.tree->avoid;
}

void GroupCastNode::start_ladder(GroupId group) {
  auto& entry = record(group);
  auto& tree = tree_of(entry);
  tree.ladder_attempts = 0;
  tree.search_pending = false;
  // Rung 0 (replication only): the backup parent precomputed by our old
  // parent — its own parent, so provably outside our subtree — is tried
  // before the regular ladder; a live backup re-adopts the orphan within
  // one round trip.
  const bool backup_rung_ok =
      options_->replication.enabled && tree.recovering &&
      tree.backup_parent != overlay::kNoPeer &&
      tree.backup_parent != self_ && tree.backup_parent != tree.avoid;
  tree.rung = backup_rung_ok          ? Rung::kBackup
              : advert_rung_ok(entry) ? Rung::kAdvertParent
                                      : Rung::kRipple;
  run_rung(group);
}

void GroupCastNode::run_rung(GroupId group) {
  auto& tree = tree_of(group);
  const auto give_up = [this, group] {
    tree_of(group).exchange = ReliableExchange::kNoToken;
    advance_rung(group);
  };
  switch (tree.rung) {
    case Rung::kBackup:
    case Rung::kAdvertParent:
      tree.exchange = exchange_.begin(
          [this, group](std::size_t) {
            const auto& entry = record(group);
            auto& st = *entry.tree;
            ++st.ladder_attempts;
            const auto target = st.rung == Rung::kBackup ? st.backup_parent
                                                         : entry.advert_parent;
            transport_->send(self_, target, JoinMsg{group, self_});
          },
          give_up);
      break;
    case Rung::kRipple:
      tree.exchange = exchange_.begin(
          [this, group](std::size_t attempt) {
            auto& st = tree_of(group);
            ++st.ladder_attempts;
            st.search_pending = true;
            ++st.search_round;
            // Widen the scope on every retry: a lost hit or a too-small
            // radius both look like a timeout.
            const auto ttl = static_cast<std::uint32_t>(
                options_->ripple_ttl + attempt);
            std::size_t queries = 0;
            for (const auto n : graph_->neighbors(self_)) {
              if (n == st.avoid) continue;
              transport_->send(
                  self_, n,
                  RippleQueryMsg{group, self_, ttl, st.search_round});
              ++queries;
            }
            trace::counters().incr(self_,
                                   trace::CounterId::kRippleSearches);
            trace::tracer().emit(now().as_micros(),
                                 trace::EventKind::kRippleSearch, self_,
                                 overlay::kNoPeer, queries);
          },
          give_up);
      break;
    case Rung::kRendezvous:
      tree.exchange = exchange_.begin(
          [this, group](std::size_t attempt) {
            const auto& entry = record(group);
            auto& st = *entry.tree;
            ++st.ladder_attempts;
            // The rendezvous first; its deterministic replicas take over
            // on later attempts (covers a crashed rendezvous point).
            std::vector<overlay::PeerId> targets;
            if (entry.rendezvous != self_ && entry.rendezvous != st.avoid) {
              targets.push_back(entry.rendezvous);
            }
            const auto population = transport_->population().size();
            const std::size_t replica_count =
                std::min(options_->rendezvous_replicas,
                         population > 0 ? population - 1 : 0);
            // With replication on, skip replicas that have departed so the
            // round-robin lands on a live (possibly acting-root) member;
            // the filter stays off otherwise to preserve the legacy
            // target order.
            LivenessFilter alive;
            if (options_->replication.enabled) {
              alive = [this](overlay::PeerId p) {
                return transport_->is_registered(p);
              };
            }
            for (const auto replica :
                 rendezvous_replicas(group, entry.rendezvous, population,
                                     replica_count, alive)) {
              if (replica != self_ && replica != st.avoid) {
                targets.push_back(replica);
              }
            }
            if (targets.empty()) return;  // nothing to try; timeout advances
            const auto target = targets[attempt % targets.size()];
            transport_->send(self_, target, JoinMsg{group, self_});
          },
          give_up);
      break;
  }
}


void GroupCastNode::advance_rung(GroupId group) {
  const auto& entry = record(group);
  auto& tree = *entry.tree;
  if (tree.on_tree()) return;  // attached while the give-up was in flight
  switch (tree.rung) {
    case Rung::kBackup:
      // The backup was dead too: fall through to the regular first rung.
      tree.rung = advert_rung_ok(entry) ? Rung::kAdvertParent : Rung::kRipple;
      run_rung(group);
      return;
    case Rung::kAdvertParent:
      tree.rung = Rung::kRipple;
      run_rung(group);
      return;
    case Rung::kRipple:
      if (entry.rendezvous != overlay::kNoPeer &&
          entry.rendezvous != self_) {
        tree.rung = Rung::kRendezvous;
        run_rung(group);
        return;
      }
      terminal_failure(group);
      return;
    case Rung::kRendezvous:
      terminal_failure(group);
      return;
  }
}

void GroupCastNode::terminal_failure(GroupId group) {
  auto& tree = tree_of(group);
  tree.exchange = ReliableExchange::kNoToken;
  tree.search_pending = false;
  // The tree position dissolves either way below: no reliable edge of
  // this group survives it (children are told to re-attach, and a later
  // re-attach starts fresh incarnations via the join handshake).
  edges_.clear(tree);
  // Dissolve the tree position: the children re-attach on their own.  The
  // first dissolve also earns the now-childless node one unguarded retry
  // of the whole ladder before it reports failure.
  const bool retry = !tree.children.empty() && !tree.dissolved_once;
  if (!tree.children.empty()) {
    for (const auto& child : tree.children) {
      transport_->send(self_, child.peer, ParentLostMsg{group});
    }
    tree.children.clear();
    tree.pending_acks.clear();
  }
  if (retry) {
    tree.dissolved_once = true;
    tree.attach_depth_limit = kUnknownDepth;
    start_ladder(group);
    return;
  }
  tree.recovering = false;
  tree.tree_parent = overlay::kNoPeer;
  tree.depth = kUnknownDepth;
  tree.attach_depth_limit = kUnknownDepth;
  trace::tracer().emit(now().as_micros(),
                       trace::EventKind::kSubscriptionAttempt, self_,
                       overlay::kNoPeer, 0);
  const bool was_subscribed = tree.subscribed;
  tree.subscribed = false;
  if (was_subscribed) report_subscribe(group, false);
}

void GroupCastNode::complete_attach(GroupId group, overlay::PeerId parent,
                                    std::uint32_t parent_depth,
                                    overlay::PeerId backup) {
  auto& tree = tree_of(group);
  if (tree.exchange != ReliableExchange::kNoToken) {
    exchange_.settle(tree.exchange);
    tree.exchange = ReliableExchange::kNoToken;
  }
  if (options_->replication.enabled && tree.recovering &&
      tree.rung == Rung::kBackup) {
    trace::counters().incr(self_, trace::CounterId::kBackupAttaches);
  }
  tree.backup_parent = options_->replication.enabled && backup != self_
                           ? backup
                           : overlay::kNoPeer;
  tree.search_pending = false;
  tree.tree_parent = parent;
  tree.depth =
      parent_depth == kUnknownDepth ? kUnknownDepth : parent_depth + 1;
  tree.avoid = overlay::kNoPeer;
  tree.attach_depth_limit = kUnknownDepth;
  tree.dissolved_once = false;
  const EdgeLiveness rule = liveness();
  rule.attached(tree.liveness, now());
  // The first beat goes at once: the parent last heard from us at our
  // join, a round trip ago, and a tick's wait on top could outlast its
  // prune deadline on a long edge.
  if (rule.enabled()) send_heartbeat(group, tree);
  // Reattach re-sync, child side: whatever edge state a previous
  // incarnation of this parent link left behind is stale now.  The
  // parent's JoinAck is chased by its SeqSync (per-pair FIFO), which
  // seeds the fresh inbound edge; our outbound edge re-forms lazily on
  // the first payload we send up.
  edges_.drop(tree, parent);
  trace::tracer().emit(now().as_micros(), trace::EventKind::kTreeEdgeAdded,
                       self_, parent);
  trace::counters().incr(self_, trace::CounterId::kTreeEdges);
  if (tree.recovering) {
    tree.recovering = false;
    trace::counters().incr(self_, trace::CounterId::kOrphansRecovered);
    trace::tracer().emit(now().as_micros(),
                         trace::EventKind::kOrphanRecovered, self_, parent,
                         tree.ladder_attempts);
  }
  // Children whose joins we accepted before being attached ourselves get
  // their deferred acks now, carrying our freshly-known depth; children
  // retained through recovery get an unsolicited depth refresh.  A join
  // from the new parent itself crossed ours: it is on the tree now, so
  // that join is stale.
  drop_child(tree, parent);
  ack_children(group, tree);
  if (tree.subscribed) {
    trace::counters().incr(self_, trace::CounterId::kSubscribeSuccesses);
    trace::tracer().emit(now().as_micros(),
                         trace::EventKind::kSubscriptionAttempt, self_,
                         parent, 1);
    report_subscribe(group, true);
  }
  maybe_schedule_heartbeat(group);
}

// ------------------------------------------- heartbeats / failure detection

void GroupCastNode::maybe_schedule_heartbeat(GroupId group) {
  if (options_->heartbeat_interval <= sim::SimTime::zero()) return;
  if (!running_) return;
  TreeState* tree = find_tree(group);
  if (tree == nullptr || tree->heartbeat_scheduled) return;
  const bool child_role = tree->on_tree() && tree->tree_parent != self_;
  const bool parent_role = !tree->children.empty();
  if (!child_role && !parent_role) return;
  tree->heartbeat_scheduled = true;
  // Liveness deadlines are timestamp-based, so an early first service of
  // a group enrolling between ticks is safe.
  heartbeats_.enrol(group, transport_->simulator_for(self_),
                    options_->heartbeat_interval, &heartbeat_thunk, this);
}

void GroupCastNode::heartbeat_thunk(void* context, std::uint64_t) {
  auto* node = static_cast<GroupCastNode*>(context);
  if (!node->running_) return;
  // heartbeat_tick re-enrols groups that still hold a tree role, which
  // re-arms the timer for the next round.
  node->heartbeats_.fire(
      node->self_, [node](GroupId group) { node->heartbeat_tick(group); });
}

void GroupCastNode::heartbeat_tick(GroupId group) {
  auto& tree = tree_of(group);
  tree.heartbeat_scheduled = false;
  if (!running_) return;
  const auto t = now();
  const EdgeLiveness rule = liveness();
  using Due = EdgeLiveness::Due;
  if (tree.on_tree() && tree.tree_parent != self_) {
    const Due due = rule.parent_due(tree.liveness, t);
    if (due == Due::kDead) {
      begin_recovery(group, tree.tree_parent);
    } else if (due == Due::kBeat) {
      send_heartbeat(group, tree);
    }
  }
  if (!tree.children.empty()) {
    // Prune the children gone silent, then beat those owed a beat.
    std::vector<overlay::PeerId> ghosts;
    for (const auto& child : tree.children) {
      if (rule.child_due(tree.liveness, child.link, t) == Due::kDead) {
        ghosts.push_back(child.peer);
      }
    }
    for (const auto ghost : ghosts) drop_child(tree, ghost);
    // A pure relay whose last child was pruned folds back off the tree.
    if (!ghosts.empty()) maybe_fold(group, tree);
    for (auto& child : tree.children) {
      if (rule.child_due(tree.liveness, child.link, t) == Due::kBeat &&
          !tree.awaits_ack(child.peer)) {
        send_parent_beat(group, tree, child);
      }
    }
  }
  maybe_schedule_heartbeat(group);
}

void GroupCastNode::position_changed(GroupId group, TreeState& tree,
                                     bool beat_now) {
  liveness().position_changed(tree.liveness, now());
  if (!beat_now) return;
  for (auto& child : tree.children) {
    if (!tree.awaits_ack(child.peer)) send_parent_beat(group, tree, child);
  }
}

void GroupCastNode::send_heartbeat(GroupId group, TreeState& tree) {
  transport_->send(self_, tree.tree_parent, HeartbeatMsg{group});
  tree.liveness.parent.sent(now());
  trace::counters().incr(self_, trace::CounterId::kHeartbeats);
}

void GroupCastNode::send_parent_beat(GroupId group, TreeState& tree,
                                     TreeState::Child& child) {
  // While we recover our own position the depth is unknown; the beat
  // still keeps the child from declaring us dead.
  transport_->send(self_, child.peer,
                   ParentBeatMsg{group,
                                 tree.on_tree() ? tree.depth : kUnknownDepth,
                                 offered_backup(tree)});
  child.link.sent(now());
  trace::counters().incr(self_, trace::CounterId::kHeartbeats);
}

bool GroupCastNode::heard_from(GroupId group, EdgeStamps* edge,
                               overlay::PeerId from) {
  if (edge != nullptr) {
    edge->heard(now());
    return true;
  }
  // The sender treats us as a tree neighbour but we do not (it was
  // pruned, or we dissolved or folded): if it takes us for its parent,
  // this tells it to re-attach; anyone else ignores it.
  transport_->send(self_, from, ParentLostMsg{group});
  return false;
}

void GroupCastNode::begin_recovery(GroupId group,
                                   overlay::PeerId dead_parent) {
  auto& tree = tree_of(group);
  if (!tree.on_tree()) return;
  tree.tree_parent = overlay::kNoPeer;
  // Only a subtree root with live descendants needs the cycle guard; a
  // childless orphan cannot be anyone's ancestor.
  tree.attach_depth_limit =
      tree.children.empty() && tree.pending_acks.empty() ? kUnknownDepth
                                                         : tree.depth;
  tree.depth = kUnknownDepth;
  tree.avoid = dead_parent;
  tree.recovering = true;
  // Both directions of the dead parent's edge are gone; edges to retained
  // children stay live (their buffers cover losses during the recovery).
  edges_.drop(tree, dead_parent);
  // The backup we offered was the dead parent: withdraw it now, since
  // edge traffic may stand in for the beats that would carry the change.
  // (The unknown depth the beats now carry changes nothing for a child.)
  if (options_->replication.enabled) position_changed(group, tree, true);
  if (tree.exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(tree.exchange);
    tree.exchange = ReliableExchange::kNoToken;
  }
  start_ladder(group);
}

// -------------------------------------------------------------- handlers

template <typename Msg>
void GroupCastNode::handle(const Envelope& envelope, const Msg& msg) {
  if constexpr (std::is_same_v<Msg, LeaseMsg> ||
                std::is_same_v<Msg, LeaseAckMsg> ||
                std::is_same_v<Msg, ReplicateMsg> ||
                std::is_same_v<Msg, ReplicateAckMsg> ||
                std::is_same_v<Msg, HandoffMsg>) {
    if (lease_) lease_->handle(replica(msg.group), envelope.from, msg);
  } else {
    // The rest is the data plane's, and a beat on its tree edge.  Without
    // a tree record there is no edge to answer for; group data and edge
    // syncs count only on the tree.
    TreeState* tree = find_tree(msg.group);
    if (tree == nullptr) return;
    constexpr bool feedback = std::is_same_v<Msg, DataNackMsg> ||
                              std::is_same_v<Msg, DataAckMsg> ||
                              std::is_same_v<Msg, FlowControlMsg>;
    if (heard_from(msg.group, tree->edge(envelope.from), envelope.from) &&
        (feedback || tree->on_tree())) {
      edges_.handle(*tree, envelope.from, msg);
    }
  }
}

void GroupCastNode::handle(const Envelope& envelope) {
  std::visit([this, &envelope](const auto& msg) { handle(envelope, msg); },
             envelope.body);
}

void GroupCastNode::handle(const Envelope& envelope, const AdvertiseMsg& msg) {
  auto& entry = record(msg.group);
  if (entry.has_advert()) {  // duplicate
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_,
        envelope.from,
        static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
    return;
  }
  entry.rendezvous = msg.rendezvous;
  entry.advert_parent = envelope.from;
  if (msg.ttl == 0) return;
  for (const auto target : select_forward_targets(
           options_->advertisement, transport_->population(), self_,
           graph_->neighbors(self_), envelope.from, resource_level_, rng_)) {
    transport_->send(self_, target,
                     AdvertiseMsg{msg.group, msg.rendezvous, msg.ttl - 1});
    trace::counters().incr(self_, trace::CounterId::kAdvertsForwarded);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
    trace::tracer().emit(now().as_micros(),
                         trace::EventKind::kAdvertForwarded, self_, target,
                         msg.ttl - 1);
  }
}

void GroupCastNode::handle(const Envelope& /*envelope*/, const JoinMsg& msg) {
  GroupRecord* entry = find(msg.group);
  // A join can only be honoured by a peer that can reach the tree.
  if (entry == nullptr || (!entry->on_tree() && !entry->has_advert())) {
    return;  // stale join: ignored
  }
  if (msg.child == self_) return;
  auto& tree = tree_of(*entry);
  auto* child = tree.find_child(msg.child);
  if (child == nullptr) child = &tree.children.emplace_back(msg.child);
  child->link.heard(now());
  if (tree.on_tree()) {
    transport_->send(
        self_, msg.child,
        JoinAckMsg{msg.group, tree.depth, offered_backup(tree)});
    child->link.sent(now());
    // The join handshake is where a (re)attaching child re-syncs its
    // expected sequence: a fresh edge incarnation rides right behind the
    // ack (per-pair FIFO), so the child never NACKs into whatever epoch
    // its previous parent link was on.
    edges_.reopen(msg.group, tree, msg.child);
    maybe_schedule_heartbeat(msg.group);
    return;
  }
  // Not attached ourselves yet: defer the ack until our own ladder lands
  // (the ack must carry a real depth), becoming a relay on the way.
  if (!tree.awaits_ack(msg.child)) tree.pending_acks.push_back(msg.child);
  if (tree.exchange == ReliableExchange::kNoToken) start_ladder(msg.group);
}

void GroupCastNode::handle(const Envelope& envelope, const JoinAckMsg& msg) {
  // Every path below but the two retractions attaches, so the tree record
  // is needed anyway.
  auto& tree = tree_of(msg.group);
  if (tree.on_tree()) {
    if (envelope.from != tree.tree_parent) {
      // A slower rung answered after we attached elsewhere: retract so the
      // acker does not keep us in its child list.
      transport_->send(self_, envelope.from, LeaveMsg{msg.group, self_});
    } else {
      // A retried join's ack is a beat too.
      tree.liveness.parent.heard(now());
    }
    return;
  }
  if (!attach_allowed(tree, envelope.from, msg.depth)) {
    // Possibly our own (stale-depth) descendant; refuse and retract.  The
    // open exchange keeps retrying toward safer attach points.
    transport_->send(self_, envelope.from, LeaveMsg{msg.group, self_});
    return;
  }
  complete_attach(msg.group, envelope.from, msg.depth, msg.backup);
}

void GroupCastNode::handle(const Envelope& envelope,
                           const RippleQueryMsg& msg) {
  auto& entry = record(msg.group);
  if (!entry.seen_queries.insert(query_key(msg.origin, msg.round))) {
    return;  // duplicate within this search round
  }
  if (entry.has_advert() || entry.on_tree()) {
    transport_->send(
        self_, msg.origin,
        RippleHitMsg{msg.group, self_,
                     entry.on_tree() ? entry.tree->depth : kUnknownDepth});
    return;
  }
  if (msg.ttl <= 1) return;
  for (const auto n : graph_->neighbors(self_)) {
    if (n == envelope.from || n == msg.origin) continue;
    transport_->send(
        self_, n,
        RippleQueryMsg{msg.group, msg.origin, msg.ttl - 1, msg.round});
  }
}

void GroupCastNode::handle(const Envelope& /*envelope*/,
                           const RippleHitMsg& msg) {
  TreeState* tree = find_tree(msg.group);
  if (tree == nullptr || tree->on_tree()) return;
  if (!tree->search_pending) return;  // already joining via earlier hit
  if (!attach_allowed(*tree, msg.holder, msg.depth)) {
    return;  // keep waiting: a safe holder may still answer
  }
  tree->search_pending = false;
  transport_->send(self_, msg.holder, JoinMsg{msg.group, self_});
}

ReliableEdge::Links* GroupCastNode::links(GroupId group) {
  if (!running_) return nullptr;
  return find_tree(group);
}

overlay::PeerId GroupCastNode::upstream(
    const ReliableEdge::Links& links) const {
  // kNoPeer off the tree, and for the root.
  const auto parent = static_cast<const TreeState&>(links).tree_parent;
  return parent != self_ ? parent : overlay::kNoPeer;
}

void GroupCastNode::deliver(GroupId group, ReliableEdge::Links& links,
                            overlay::PeerId via,
                            const BufferedPayload& payload) {
  auto& tree = static_cast<TreeState&>(links);
  if (!tree.seen_payloads.insert(
          payload_key(payload.origin, payload.payload_id))) {
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_, via,
        static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
    return;  // duplicate
  }
  trace::histograms().record(trace::HistogramId::kHopCount, payload.hops);
  trace::tracer().emit(
      now().as_micros(), trace::EventKind::kPayloadDelivered, self_, via,
      trace::pack_provenance(payload.origin, payload.payload_id,
                             payload.hops));
  if (tree.subscribed) {
    if (payload.chunk) {
      // Chunk delivery metrics are viewer-side: relays forward without
      // judging deadlines.
      const auto now_us = now().as_micros();
      if (now_us <= payload.deadline_us) {
        trace::counters().incr(self_, trace::CounterId::kChunksDelivered);
        trace::histograms().record(
            trace::HistogramId::kChunkSlackUs,
            static_cast<std::uint64_t>(payload.deadline_us - now_us));
      } else {
        trace::counters().incr(self_, trace::CounterId::kChunksLate);
      }
      if (callbacks_ && callbacks_->chunk) {
        callbacks_->chunk(group,
                          ChunkMsg{group, payload.origin,
                                   chunk_stream(payload.payload_id),
                                   chunk_index(payload.payload_id),
                                   payload.deadline_us, payload.chunk_bytes,
                                   0, 0, payload.hops});
      }
    } else if (callbacks_ && callbacks_->data) {
      callbacks_->data(group, payload.payload_id, payload.origin);
    }
  }
  // Forward along the tree, away from the sender.
  BufferedPayload forward = payload;
  ++forward.hops;
  if (tree.tree_parent != self_ && tree.tree_parent != via &&
      tree.tree_parent != overlay::kNoPeer) {
    edges_.send(group, tree, tree.tree_parent, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
  for (const auto& child : tree.children) {
    if (child.peer == via) continue;
    edges_.send(group, tree, child.peer, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
}

void GroupCastNode::handle(const Envelope& /*envelope*/, const LeaveMsg& msg) {
  TreeState* tree = find_tree(msg.group);
  if (tree == nullptr) return;  // no child to lose
  drop_child(*tree, msg.child);
  // A pure relay whose last child left can leave too.
  maybe_fold(msg.group, *tree);
}

void GroupCastNode::handle(const Envelope& envelope, const HeartbeatMsg& msg) {
  // Only a child beats its parent: a Heartbeat from anyone else, our own
  // parent included, gets ParentLost.
  TreeState* tree = find_tree(msg.group);
  heard_from(msg.group,
             tree != nullptr ? tree->child_edge(envelope.from) : nullptr,
             envelope.from);
}

void GroupCastNode::handle(const Envelope& envelope, const ParentBeatMsg& msg) {
  TreeState* tree = find_tree(msg.group);
  if (tree == nullptr) return;
  if (!tree->on_tree() || envelope.from != tree->tree_parent) {
    // The sender still lists us as its child.  Attached elsewhere, we
    // retract, as from a late JoinAck; mid-ladder we say nothing, since a
    // join of ours may be on its way to the sender.
    if (tree->on_tree()) {
      transport_->send(self_, envelope.from, LeaveMsg{msg.group, self_});
    }
    return;
  }
  tree->liveness.parent.heard(now());
  if (options_->replication.enabled && msg.backup != self_) {
    // The parent's own parent may have changed since the join: every beat
    // refreshes the rung-0 backup.
    tree->backup_parent = msg.backup;
  }
  if (msg.depth != kUnknownDepth && msg.depth + 1 != tree->depth) {
    tree->depth = msg.depth + 1;
    // Depth rides only on beats, and edge traffic may stand in for them:
    // the next ticks pass the change down.  (Not at once: on a transient
    // cycle an immediate cascade would loop at network speed.)
    position_changed(msg.group, *tree, false);
  }
}

void GroupCastNode::handle(const Envelope& envelope, const ParentLostMsg& msg) {
  const TreeState* tree = find_tree(msg.group);
  if (tree == nullptr || !tree->on_tree() ||
      envelope.from != tree->tree_parent) {
    return;
  }
  begin_recovery(msg.group, envelope.from);
}

}  // namespace groupcast::core
