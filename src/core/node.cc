#include "core/node.h"

#include <algorithm>
#include <cmath>

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

void erase_value(std::vector<overlay::PeerId>& v, overlay::PeerId value) {
  const auto it = std::find(v.begin(), v.end(), value);
  if (it != v.end()) v.erase(it);
}

/// Adaptive failure detection (docs/ROBUSTNESS.md, "Flow control &
/// adaptive detection"): the per-window false-positive budget the miss
/// threshold is derived against, and the widest window the estimator may
/// open (bounds worst-case failure-detection latency).
constexpr double kFalsePositiveTarget = 1e-4;
constexpr std::size_t kMaxAdaptiveMisses = 12;
}  // namespace

GroupCastNode::GroupCastNode(overlay::PeerId self, Transport& transport,
                             const overlay::OverlayGraph& graph,
                             NodeOptions options, util::Rng& rng)
    : self_(self),
      transport_(&transport),
      graph_(&graph),
      options_(options),
      rng_(rng.split()),
      exchange_(transport.simulator_for(self), self, options.retry, rng_),
      edges_(*this, self, transport, options_.reliability, options.adaptive,
             rng_) {
  GC_REQUIRE(self < transport.population().size());
  GC_REQUIRE(options_.ripple_ttl >= 1);
  GC_REQUIRE(options_.missed_heartbeats_to_fail >= 1);
  GC_REQUIRE(options_.heartbeat_interval >= sim::SimTime::zero());
  if (options_.replication.enabled) {
    lease_ = std::make_unique<LeaseReplica>(
        static_cast<LeaseReplica::Host&>(*this), self, transport,
        options_.replication, rng_);
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
  for (auto& [group, state] : groups_) {
    state.exchange = ReliableExchange::kNoToken;
    // A departed node's edge timers must not fire into a dead runtime.
    edges_.cancel_timers(state);
  }
  // A departed node stops probing: cancel the shared tick instead of
  // letting it fire into a dead runtime.
  heartbeats_.cancel(transport_->simulator_for(self_), [this](GroupId group) {
    groups_[group].heartbeat_scheduled = false;
  });
  running_ = false;
}

sim::SimTime GroupCastNode::now() const {
  return transport_->simulator_for(self_).now();
}

// ------------------------------------------------------------- public API

void GroupCastNode::create_group(GroupId group) {
  GC_REQUIRE(running_);
  auto& state = state_of(group);
  GC_REQUIRE_MSG(!state.has_advert, "group already created or advertised");
  state.rendezvous = self_;
  state.advert_parent = self_;
  state.has_advert = true;
  state.on_tree = true;
  state.subscribed = true;
  state.tree_parent = self_;
  state.depth = 0;
  for (const auto target : select_forward_targets(
           options_.advertisement, transport_->population(), self_,
           graph_->neighbors(self_), self_, resource_level_, rng_)) {
    transport_->send(
        self_, target,
        AdvertiseMsg{group, self_,
                     static_cast<std::uint32_t>(
                         options_.advertisement.ttl - 1)});
  }
  if (lease_) lease_->create(group, state.repl);
}

void GroupCastNode::subscribe(GroupId group) {
  GC_REQUIRE(running_);
  auto& state = state_of(group);
  if (state.on_tree) {
    state.subscribed = true;
    if (subscribe_callback_) subscribe_callback_(group, true);
    return;
  }
  state.subscribed = true;  // desired; effective once on the tree
  trace::counters().incr(self_, trace::CounterId::kSubscribeAttempts);
  if (state.exchange != ReliableExchange::kNoToken) {
    return;  // a relay-chain ladder is already climbing; ride it
  }
  start_ladder(group);
}

void GroupCastNode::unsubscribe(GroupId group) {
  GC_REQUIRE(running_);
  auto& state = state_of(group);
  GC_REQUIRE_MSG(state.subscribed, "not subscribed to this group");
  state.subscribed = false;
  if (state.exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(state.exchange);
    state.exchange = ReliableExchange::kNoToken;
    state.search_pending = false;
    state.recovering = false;
  }
  // A leaf detaches; a relay (or the root) keeps forwarding for its
  // children.
  maybe_fold(group, state);
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
  const auto it = groups_.find(group);
  GC_REQUIRE_MSG(it != groups_.end() && it->second.on_tree,
                 "publish requires tree membership");
  auto& state = it->second;
  state.seen_payloads.insert(payload_key(self_, payload.payload_id));
  if (payload.chunk) {
    trace::counters().incr(self_, trace::CounterId::kChunksPublished);
  }
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadPublished,
                       self_, trace::kNoNode,
                       trace::pack_provenance(self_, payload.payload_id, 0));
  if (state.tree_parent != self_ &&
      state.tree_parent != overlay::kNoPeer) {
    edges_.send(group, state, state.tree_parent, payload);
  }
  for (const auto child : state.children) {
    edges_.send(group, state, child, payload);
  }
}

// ------------------------------------------------------------ inspection

bool GroupCastNode::has_advertisement(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.has_advert;
}

bool GroupCastNode::is_subscribed(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.subscribed &&
         it->second.on_tree;
}

bool GroupCastNode::on_tree(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.on_tree;
}

overlay::PeerId GroupCastNode::tree_parent(GroupId group) const {
  const auto it = groups_.find(group);
  GC_REQUIRE(it != groups_.end() && it->second.on_tree);
  return it->second.tree_parent;
}

std::vector<overlay::PeerId> GroupCastNode::tree_children(
    GroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  return it->second.children;
}

std::uint32_t GroupCastNode::tree_depth(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.on_tree ? it->second.depth
                                                   : kUnknownDepth;
}

bool GroupCastNode::exchange_pending(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() &&
         it->second.exchange != ReliableExchange::kNoToken;
}

std::size_t GroupCastNode::send_buffer_depth(GroupId group,
                                             overlay::PeerId peer) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? ReliableEdge::buffer_depth(it->second, peer)
                             : 0;
}

std::size_t GroupCastNode::pending_depth(GroupId group,
                                         overlay::PeerId peer) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? ReliableEdge::pending_depth(it->second, peer)
                             : 0;
}

std::size_t GroupCastNode::adaptive_miss_threshold(double miss_ewma,
                                                   std::size_t floor_misses) {
  const std::size_t cap = std::max(floor_misses, kMaxAdaptiveMisses);
  if (miss_ewma <= 0.0) return floor_misses;
  if (miss_ewma >= 1.0) return cap;
  // docs/ROBUSTNESS.md false-positive math: k consecutive misses are a
  // false positive with probability miss^k, so the smallest k with
  // miss^k <= target keeps the spurious-recovery rate under budget.
  const double need =
      std::log(kFalsePositiveTarget) / std::log(miss_ewma);
  if (need >= static_cast<double>(cap)) return cap;
  const auto k = static_cast<std::size_t>(std::ceil(need));
  return std::min(std::max(k, floor_misses), cap);
}

std::uint64_t GroupCastNode::expected_seq(GroupId group,
                                          overlay::PeerId peer) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? ReliableEdge::expected_seq(it->second, peer)
                             : 0;
}

bool GroupCastNode::replication_member(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.repl.member;
}

bool GroupCastNode::is_leaseholder(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.repl.leaseholder;
}

std::uint32_t GroupCastNode::lease_epoch(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? it->second.repl.epoch : 0;
}

overlay::PeerId GroupCastNode::lease_leader(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? it->second.repl.leader : overlay::kNoPeer;
}

std::vector<LeaseRecord> GroupCastNode::lease_log(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? it->second.repl.log
                             : std::vector<LeaseRecord>{};
}

overlay::PeerId GroupCastNode::backup_parent(GroupId group) const {
  const auto it = groups_.find(group);
  return it != groups_.end() ? it->second.backup_parent : overlay::kNoPeer;
}


std::size_t GroupCastNode::memory_bytes() const {
  // Hash sets amortize to about one pointer per bucket plus a node per
  // element.
  std::size_t bytes = sizeof(*this);
  if (lease_) bytes += lease_->memory_bytes();
  for (const auto& [group, state] : groups_) {
    bytes += kContainerEntryBytes + sizeof(GroupId) + sizeof(GroupState);
    bytes += state.children.capacity() * sizeof(overlay::PeerId);
    bytes += state.pending_acks.capacity() * sizeof(overlay::PeerId);
    bytes += state.seen_payloads.memory_bytes();
    bytes += state.seen_queries.memory_bytes();
    bytes += state.child_last_seen.bucket_count() * sizeof(void*) +
             state.child_last_seen.size() *
                 (sizeof(overlay::PeerId) + sizeof(sim::SimTime) +
                  kContainerEntryBytes);
    bytes += ReliableEdge::memory_bytes(state);
    bytes += LeaseReplica::memory_bytes(state.repl);
  }
  return bytes;
}

// ---------------------------------------------------------- tree position

void GroupCastNode::maybe_fold(GroupId group, GroupState& state) {
  if (state.subscribed || !state.on_tree || !state.children.empty() ||
      state.tree_parent == self_) {
    return;
  }
  transport_->send(self_, state.tree_parent, LeaveMsg{group, self_});
  edges_.drop(state, state.tree_parent);
  state.on_tree = false;
  state.tree_parent = overlay::kNoPeer;
  state.depth = kUnknownDepth;
}

void GroupCastNode::ack_children(GroupId group, GroupState& state) {
  for (const auto child : state.pending_acks) {
    transport_->send(self_, child,
                     JoinAckMsg{group, state.depth, offered_backup(state)});
    // The deferred ack completes the join handshake: give the child a
    // fresh edge incarnation so its expected sequence starts in sync.
    edges_.reopen(group, state, child);
  }
  if (state.depth != kUnknownDepth) {
    for (const auto child : state.children) {
      if (std::find(state.pending_acks.begin(), state.pending_acks.end(),
                    child) != state.pending_acks.end()) {
        continue;  // its JoinAck above already carries the depth
      }
      transport_->send(
          self_, child,
          HeartbeatAckMsg{group, state.depth, offered_backup(state)});
    }
  }
  state.pending_acks.clear();
}

overlay::PeerId GroupCastNode::offered_backup(const GroupState& state) const {
  if (!options_.replication.enabled || !state.on_tree) {
    return overlay::kNoPeer;
  }
  if (state.tree_parent == self_ || state.tree_parent == overlay::kNoPeer) {
    return overlay::kNoPeer;  // roots have no grandparent to offer
  }
  return state.tree_parent;
}

void GroupCastNode::root_self(GroupId group) {
  auto& state = state_of(group);
  if (state.on_tree && state.tree_parent == self_) return;
  if (state.exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(state.exchange);
    state.exchange = ReliableExchange::kNoToken;
  }
  if (state.on_tree && state.tree_parent != overlay::kNoPeer &&
      state.tree_parent != self_) {
    transport_->send(self_, state.tree_parent, LeaveMsg{group, self_});
    edges_.drop(state, state.tree_parent);
  }
  state.on_tree = true;
  state.search_pending = false;
  state.recovering = false;
  state.tree_parent = self_;
  state.depth = 0;
  state.avoid = overlay::kNoPeer;
  state.attach_depth_limit = kUnknownDepth;
  state.dissolved_once = false;
  state.backup_parent = overlay::kNoPeer;
  ack_children(group, state);  // they learn the new depth root-style
  maybe_schedule_heartbeat(group);
}

void GroupCastNode::superseded(GroupId group) {
  // Heal reconciliation, tree half: a superseded acting root re-runs the
  // ladder to fold its whole subtree back under the new leader (its
  // depth-0 guard keeps it from attaching below its own descendants).
  auto& state = state_of(group);
  if (state.on_tree && state.tree_parent == self_) {
    begin_recovery(group, overlay::kNoPeer);
  }
}

// ----------------------------------------------------------- retry ladder

bool GroupCastNode::attach_allowed(const GroupState& state,
                                   overlay::PeerId target,
                                   std::uint32_t target_depth) const {
  if (target == self_ || target == state.avoid) return false;
  if (state.attach_depth_limit == kUnknownDepth) return true;
  // Guarded orphan: strict descendants carry a (possibly stale) depth of
  // at least ours + 1, so any target at our old depth or above the old
  // position is provably outside our own subtree.
  return target_depth != kUnknownDepth &&
         target_depth <= state.attach_depth_limit;
}

bool GroupCastNode::advert_rung_ok(const GroupState& state) const {
  return state.has_advert && state.advert_parent != self_ &&
         state.advert_parent != overlay::kNoPeer &&
         state.advert_parent != state.avoid;
}

void GroupCastNode::start_ladder(GroupId group) {
  auto& state = state_of(group);
  state.ladder_attempts = 0;
  state.search_pending = false;
  // Rung 0 (replication only): the backup parent precomputed by our old
  // parent — its own parent, so provably outside our subtree — is tried
  // before the regular ladder; a live backup re-adopts the orphan within
  // one round trip.
  const bool backup_rung_ok =
      options_.replication.enabled && state.recovering &&
      state.backup_parent != overlay::kNoPeer &&
      state.backup_parent != self_ && state.backup_parent != state.avoid;
  state.rung = backup_rung_ok          ? Rung::kBackup
               : advert_rung_ok(state) ? Rung::kAdvertParent
                                       : Rung::kRipple;
  run_rung(group);
}

void GroupCastNode::run_rung(GroupId group) {
  auto& state = state_of(group);
  const auto give_up = [this, group] {
    state_of(group).exchange = ReliableExchange::kNoToken;
    advance_rung(group);
  };
  switch (state.rung) {
    case Rung::kBackup:
    case Rung::kAdvertParent:
      state.exchange = exchange_.begin(
          [this, group](std::size_t) {
            auto& st = state_of(group);
            ++st.ladder_attempts;
            const auto target = st.rung == Rung::kBackup ? st.backup_parent
                                                         : st.advert_parent;
            transport_->send(self_, target, JoinMsg{group, self_});
          },
          give_up);
      break;
    case Rung::kRipple:
      state.exchange = exchange_.begin(
          [this, group](std::size_t attempt) {
            auto& st = state_of(group);
            ++st.ladder_attempts;
            st.search_pending = true;
            ++st.search_round;
            // Widen the scope on every retry: a lost hit or a too-small
            // radius both look like a timeout.
            const auto ttl = static_cast<std::uint32_t>(
                options_.ripple_ttl + attempt);
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
      state.exchange = exchange_.begin(
          [this, group](std::size_t attempt) {
            auto& st = state_of(group);
            ++st.ladder_attempts;
            // The rendezvous first; its deterministic replicas take over
            // on later attempts (covers a crashed rendezvous point).
            std::vector<overlay::PeerId> targets;
            if (st.rendezvous != self_ && st.rendezvous != st.avoid) {
              targets.push_back(st.rendezvous);
            }
            const auto population = transport_->population().size();
            const std::size_t replica_count =
                std::min(options_.rendezvous_replicas,
                         population > 0 ? population - 1 : 0);
            // With replication on, skip replicas that have departed so the
            // round-robin lands on a live (possibly acting-root) member;
            // the filter stays off otherwise to preserve the legacy
            // target order.
            LivenessFilter alive;
            if (options_.replication.enabled) {
              alive = [this](overlay::PeerId p) {
                return transport_->is_registered(p);
              };
            }
            for (const auto replica :
                 rendezvous_replicas(group, st.rendezvous, population,
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
  auto& state = state_of(group);
  if (state.on_tree) return;  // attached while the give-up was in flight
  switch (state.rung) {
    case Rung::kBackup:
      // The backup was dead too: fall through to the regular first rung.
      state.rung = advert_rung_ok(state) ? Rung::kAdvertParent : Rung::kRipple;
      run_rung(group);
      return;
    case Rung::kAdvertParent:
      state.rung = Rung::kRipple;
      run_rung(group);
      return;
    case Rung::kRipple:
      if (state.rendezvous != overlay::kNoPeer &&
          state.rendezvous != self_) {
        state.rung = Rung::kRendezvous;
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
  auto& state = state_of(group);
  state.exchange = ReliableExchange::kNoToken;
  state.search_pending = false;
  // The tree position dissolves either way below: no reliable edge of
  // this group survives it (children are told to re-attach, and a later
  // re-attach starts fresh incarnations via the join handshake).
  edges_.clear(state);
  // Dissolve the tree position: the children re-attach on their own.  The
  // first dissolve also earns the now-childless node one unguarded retry
  // of the whole ladder before it reports failure.
  const bool retry = !state.children.empty() && !state.dissolved_once;
  if (!state.children.empty()) {
    for (const auto child : state.children) {
      transport_->send(self_, child, ParentLostMsg{group});
    }
    state.children.clear();
    state.child_last_seen.clear();
    state.pending_acks.clear();
  }
  if (retry) {
    state.dissolved_once = true;
    state.attach_depth_limit = kUnknownDepth;
    start_ladder(group);
    return;
  }
  state.recovering = false;
  state.on_tree = false;
  state.tree_parent = overlay::kNoPeer;
  state.depth = kUnknownDepth;
  state.attach_depth_limit = kUnknownDepth;
  trace::tracer().emit(now().as_micros(),
                       trace::EventKind::kSubscriptionAttempt, self_,
                       overlay::kNoPeer, 0);
  const bool was_subscribed = state.subscribed;
  state.subscribed = false;
  if (was_subscribed && subscribe_callback_) {
    subscribe_callback_(group, false);
  }
}

void GroupCastNode::complete_attach(GroupId group, overlay::PeerId parent,
                                    std::uint32_t parent_depth,
                                    overlay::PeerId backup) {
  auto& state = state_of(group);
  if (state.exchange != ReliableExchange::kNoToken) {
    exchange_.settle(state.exchange);
    state.exchange = ReliableExchange::kNoToken;
  }
  if (options_.replication.enabled && state.recovering &&
      state.rung == Rung::kBackup) {
    trace::counters().incr(self_, trace::CounterId::kBackupAttaches);
  }
  state.backup_parent = options_.replication.enabled && backup != self_
                            ? backup
                            : overlay::kNoPeer;
  state.on_tree = true;
  state.search_pending = false;
  state.tree_parent = parent;
  state.depth =
      parent_depth == kUnknownDepth ? kUnknownDepth : parent_depth + 1;
  state.avoid = overlay::kNoPeer;
  state.attach_depth_limit = kUnknownDepth;
  state.dissolved_once = false;
  state.parent_last_ack = now();
  // A new parent means a new path: the failure-detector estimate learned
  // on the old edge no longer describes this one.
  state.hb_miss_ewma = 0.0;
  state.hb_probe_outstanding = false;
  // Reattach re-sync, child side: whatever edge state a previous
  // incarnation of this parent link left behind is stale now.  The
  // parent's JoinAck is chased by its SeqSync (per-pair FIFO), which
  // seeds the fresh inbound edge; our outbound edge re-forms lazily on
  // the first payload we send up.
  edges_.drop(state, parent);
  trace::tracer().emit(now().as_micros(), trace::EventKind::kTreeEdgeAdded,
                       self_, parent);
  trace::counters().incr(self_, trace::CounterId::kTreeEdges);
  if (state.recovering) {
    state.recovering = false;
    trace::counters().incr(self_, trace::CounterId::kOrphansRecovered);
    trace::tracer().emit(now().as_micros(),
                         trace::EventKind::kOrphanRecovered, self_, parent,
                         state.ladder_attempts);
  }
  // Children whose joins we accepted before being attached ourselves get
  // their deferred acks now, carrying our freshly-known depth; children
  // retained through recovery get an unsolicited depth refresh.
  ack_children(group, state);
  if (state.subscribed) {
    trace::counters().incr(self_, trace::CounterId::kSubscribeSuccesses);
    trace::tracer().emit(now().as_micros(),
                         trace::EventKind::kSubscriptionAttempt, self_,
                         parent, 1);
    if (subscribe_callback_) subscribe_callback_(group, true);
  }
  maybe_schedule_heartbeat(group);
}

// ------------------------------------------- heartbeats / failure detection

void GroupCastNode::maybe_schedule_heartbeat(GroupId group) {
  if (options_.heartbeat_interval <= sim::SimTime::zero()) return;
  if (!running_) return;
  auto& state = state_of(group);
  if (state.heartbeat_scheduled) return;
  const bool child_role = state.on_tree && state.tree_parent != self_ &&
                          state.tree_parent != overlay::kNoPeer;
  const bool parent_role = !state.children.empty();
  if (!child_role && !parent_role) return;
  state.heartbeat_scheduled = true;
  // Liveness deadlines are timestamp-based, so an early first service of
  // a group enrolling between ticks is safe.
  heartbeats_.enrol(group, transport_->simulator_for(self_),
                    options_.heartbeat_interval, &heartbeat_thunk, this);
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
  auto& state = state_of(group);
  state.heartbeat_scheduled = false;
  if (!running_) return;
  const auto t = now();
  const auto interval = options_.heartbeat_interval;
  if (state.on_tree && state.tree_parent != self_ &&
      state.tree_parent != overlay::kNoPeer) {
    if (options_.adaptive && state.hb_probe_outstanding) {
      // One miss sample per probed interval: did the previous heartbeat's
      // ack make it back before this tick?
      ewma_update(state.hb_miss_ewma,
                  state.parent_last_ack >= state.last_hb_probe ? 0.0 : 1.0);
      state.hb_probe_outstanding = false;
      trace::histograms().record(
          trace::HistogramId::kEstimatedLoss,
          static_cast<std::uint64_t>(
              std::llround(state.hb_miss_ewma * 1000.0)));
    }
    const std::size_t misses =
        options_.adaptive
            ? adaptive_miss_threshold(state.hb_miss_ewma,
                                      options_.missed_heartbeats_to_fail)
            : options_.missed_heartbeats_to_fail;
    const auto deadline = interval * static_cast<std::int64_t>(misses);
    if (t - state.parent_last_ack > deadline) {
      begin_recovery(group, state.tree_parent);
    } else {
      transport_->send(self_, state.tree_parent, HeartbeatMsg{group});
      trace::counters().incr(self_, trace::CounterId::kHeartbeats);
      if (options_.adaptive) {
        state.last_hb_probe = t;
        state.hb_probe_outstanding = true;
      }
    }
  }
  if (!state.children.empty()) {
    // Prune children that went silent: one interval of slack beyond the
    // parent-side deadline so a child is never pruned before it would
    // have declared us dead.  Under adaptive detection a child may widen
    // its own deadline up to kMaxAdaptiveMisses, so the slack must cover
    // the widest window any child could be using.
    const std::size_t child_misses =
        options_.adaptive
            ? std::max(options_.missed_heartbeats_to_fail,
                       kMaxAdaptiveMisses)
            : options_.missed_heartbeats_to_fail;
    const auto child_deadline =
        interval * static_cast<std::int64_t>(child_misses + 1);
    std::vector<overlay::PeerId> ghosts;
    for (const auto child : state.children) {
      const auto it = state.child_last_seen.find(child);
      const auto last = it != state.child_last_seen.end()
                            ? it->second
                            : sim::SimTime::zero();
      if (t - last > child_deadline) ghosts.push_back(child);
    }
    for (const auto ghost : ghosts) {
      erase_value(state.children, ghost);
      erase_value(state.pending_acks, ghost);
      state.child_last_seen.erase(ghost);
      edges_.drop(state, ghost);
    }
    // A pure relay whose last child was pruned folds back off the tree.
    if (!ghosts.empty()) maybe_fold(group, state);
  }
  maybe_schedule_heartbeat(group);
}

void GroupCastNode::begin_recovery(GroupId group,
                                   overlay::PeerId dead_parent) {
  auto& state = state_of(group);
  if (!state.on_tree) return;
  state.on_tree = false;
  state.tree_parent = overlay::kNoPeer;
  // Only a subtree root with live descendants needs the cycle guard; a
  // childless orphan cannot be anyone's ancestor.
  state.attach_depth_limit =
      state.children.empty() && state.pending_acks.empty() ? kUnknownDepth
                                                           : state.depth;
  state.depth = kUnknownDepth;
  state.avoid = dead_parent;
  state.recovering = true;
  // Both directions of the dead parent's edge are gone; edges to retained
  // children stay live (their buffers cover losses during the recovery).
  edges_.drop(state, dead_parent);
  if (state.exchange != ReliableExchange::kNoToken) {
    exchange_.cancel(state.exchange);
    state.exchange = ReliableExchange::kNoToken;
  }
  start_ladder(group);
}

// -------------------------------------------------------------- handlers

void GroupCastNode::handle(const Envelope& envelope) {
  std::visit(
      [this, &envelope](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, AdvertiseMsg>) {
          handle_advertise(envelope, msg);
        } else if constexpr (std::is_same_v<T, JoinMsg>) {
          handle_join(envelope, msg);
        } else if constexpr (std::is_same_v<T, JoinAckMsg>) {
          handle_join_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, RippleQueryMsg>) {
          handle_ripple_query(envelope, msg);
        } else if constexpr (std::is_same_v<T, RippleHitMsg>) {
          handle_ripple_hit(envelope, msg);
        } else if constexpr (std::is_same_v<T, LeaveMsg>) {
          handle_leave(envelope, msg);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          handle_heartbeat(envelope, msg);
        } else if constexpr (std::is_same_v<T, HeartbeatAckMsg>) {
          handle_heartbeat_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, ParentLostMsg>) {
          handle_parent_lost(envelope, msg);
        } else if constexpr (std::is_same_v<T, DataMsg> ||
                             std::is_same_v<T, ChunkMsg> ||
                             std::is_same_v<T, ReliableDataMsg> ||
                             std::is_same_v<T, SeqSyncMsg>) {
          // Group data and edge syncs only count on the tree.
          auto& state = state_of(msg.group);
          if (state.on_tree) edges_.handle(state, envelope.from, msg);
        } else if constexpr (std::is_same_v<T, DataNackMsg> ||
                             std::is_same_v<T, DataAckMsg>) {
          edges_.handle(state_of(msg.group), envelope.from, msg);
        } else if constexpr (std::is_same_v<T, FlowControlMsg>) {
          const auto it = groups_.find(msg.group);
          if (it != groups_.end()) {
            edges_.handle(it->second, envelope.from, msg);
          }
        } else if constexpr (std::is_same_v<T, LeaseMsg> ||
                             std::is_same_v<T, LeaseAckMsg> ||
                             std::is_same_v<T, ReplicateMsg> ||
                             std::is_same_v<T, ReplicateAckMsg> ||
                             std::is_same_v<T, HandoffMsg>) {
          if (lease_) {
            lease_->handle(state_of(msg.group).repl, envelope.from, msg);
          }
        }
      },
      envelope.body);
}

void GroupCastNode::handle_advertise(const Envelope& envelope,
                                     const AdvertiseMsg& msg) {
  auto& state = state_of(msg.group);
  if (state.has_advert) {  // duplicate
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_,
        envelope.from,
        static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
    return;
  }
  state.has_advert = true;
  state.rendezvous = msg.rendezvous;
  state.advert_parent = envelope.from;
  if (msg.ttl == 0) return;
  for (const auto target : select_forward_targets(
           options_.advertisement, transport_->population(), self_,
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

void GroupCastNode::handle_join(const Envelope& /*envelope*/,
                                const JoinMsg& msg) {
  auto& state = state_of(msg.group);
  // A join can only be honoured by a peer that can reach the tree.
  if (!state.on_tree && !state.has_advert) return;  // stale join: ignored
  if (msg.child == self_) return;
  if (std::find(state.children.begin(), state.children.end(), msg.child) ==
      state.children.end()) {
    state.children.push_back(msg.child);
  }
  state.child_last_seen[msg.child] = now();
  if (state.on_tree) {
    transport_->send(
        self_, msg.child,
        JoinAckMsg{msg.group, state.depth, offered_backup(state)});
    // The join handshake is where a (re)attaching child re-syncs its
    // expected sequence: a fresh edge incarnation rides right behind the
    // ack (per-pair FIFO), so the child never NACKs into whatever epoch
    // its previous parent link was on.
    edges_.reopen(msg.group, state, msg.child);
    maybe_schedule_heartbeat(msg.group);
    return;
  }
  // Not attached ourselves yet: defer the ack until our own ladder lands
  // (the ack must carry a real depth), becoming a relay on the way.
  if (std::find(state.pending_acks.begin(), state.pending_acks.end(),
                msg.child) == state.pending_acks.end()) {
    state.pending_acks.push_back(msg.child);
  }
  if (state.exchange == ReliableExchange::kNoToken) start_ladder(msg.group);
}

void GroupCastNode::handle_join_ack(const Envelope& envelope,
                                    const JoinAckMsg& msg) {
  auto& state = state_of(msg.group);
  if (state.on_tree) {
    if (envelope.from != state.tree_parent) {
      // A slower rung answered after we attached elsewhere: retract so the
      // acker does not keep us in its child list.
      transport_->send(self_, envelope.from, LeaveMsg{msg.group, self_});
    }
    return;
  }
  if (!attach_allowed(state, envelope.from, msg.depth)) {
    // Possibly our own (stale-depth) descendant; refuse and retract.  The
    // open exchange keeps retrying toward safer attach points.
    transport_->send(self_, envelope.from, LeaveMsg{msg.group, self_});
    return;
  }
  complete_attach(msg.group, envelope.from, msg.depth, msg.backup);
}

void GroupCastNode::handle_ripple_query(const Envelope& envelope,
                                        const RippleQueryMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.seen_queries.insert(query_key(msg.origin, msg.round))) {
    return;  // duplicate within this search round
  }
  if (state.has_advert || state.on_tree) {
    transport_->send(
        self_, msg.origin,
        RippleHitMsg{msg.group, self_,
                     state.on_tree ? state.depth : kUnknownDepth});
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

void GroupCastNode::handle_ripple_hit(const Envelope& /*envelope*/,
                                      const RippleHitMsg& msg) {
  auto& state = state_of(msg.group);
  if (state.on_tree) return;
  if (!state.search_pending) return;  // already joining via earlier hit
  if (!attach_allowed(state, msg.holder, msg.depth)) {
    return;  // keep waiting: a safe holder may still answer
  }
  state.search_pending = false;
  transport_->send(self_, msg.holder, JoinMsg{msg.group, self_});
}

ReliableEdge::Links* GroupCastNode::links(GroupId group) {
  if (!running_) return nullptr;
  const auto it = groups_.find(group);
  return it != groups_.end() ? &it->second : nullptr;
}

overlay::PeerId GroupCastNode::upstream(
    const ReliableEdge::Links& links) const {
  const auto& state = static_cast<const GroupState&>(links);
  return state.on_tree && state.tree_parent != self_ ? state.tree_parent
                                                     : overlay::kNoPeer;
}

void GroupCastNode::deliver(GroupId group, ReliableEdge::Links& links,
                            overlay::PeerId via,
                            const BufferedPayload& payload) {
  auto& state = static_cast<GroupState&>(links);
  if (!state.seen_payloads.insert(
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
  if (state.subscribed) {
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
      if (chunk_callback_) {
        chunk_callback_(group,
                        ChunkMsg{group, payload.origin,
                                 chunk_stream(payload.payload_id),
                                 chunk_index(payload.payload_id),
                                 payload.deadline_us, payload.chunk_bytes, 0,
                                 0, payload.hops});
      }
    } else if (data_callback_) {
      data_callback_(group, payload.payload_id, payload.origin);
    }
  }
  // Forward along the tree, away from the sender.
  BufferedPayload forward = payload;
  forward.seq = 0;  // sequences are edge-local; assigned at transmit
  ++forward.hops;
  if (state.tree_parent != self_ && state.tree_parent != via &&
      state.tree_parent != overlay::kNoPeer) {
    edges_.send(group, state, state.tree_parent, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
  for (const auto child : state.children) {
    if (child == via) continue;
    edges_.send(group, state, child, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
}

void GroupCastNode::handle_leave(const Envelope& /*envelope*/,
                                 const LeaveMsg& msg) {
  auto& state = state_of(msg.group);
  erase_value(state.children, msg.child);
  erase_value(state.pending_acks, msg.child);
  state.child_last_seen.erase(msg.child);
  edges_.drop(state, msg.child);
  // A pure relay whose last child left can leave too.
  maybe_fold(msg.group, state);
}

void GroupCastNode::handle_heartbeat(const Envelope& envelope,
                                     const HeartbeatMsg& msg) {
  auto& state = state_of(msg.group);
  const bool is_child =
      std::find(state.children.begin(), state.children.end(),
                envelope.from) != state.children.end();
  if (!is_child) {
    // The sender believes we are its parent but we disagree (it was
    // pruned, or we dissolved): tell it to re-attach.
    transport_->send(self_, envelope.from, ParentLostMsg{msg.group});
    return;
  }
  state.child_last_seen[envelope.from] = now();
  // While we recover our own position the depth is unknown; the ack still
  // keeps the child from declaring us dead.
  transport_->send(
      self_, envelope.from,
      HeartbeatAckMsg{msg.group,
                      state.on_tree ? state.depth : kUnknownDepth,
                      offered_backup(state)});
}

void GroupCastNode::handle_heartbeat_ack(const Envelope& envelope,
                                         const HeartbeatAckMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree || envelope.from != state.tree_parent) return;
  state.parent_last_ack = now();
  if (msg.depth != kUnknownDepth) state.depth = msg.depth + 1;
  if (options_.replication.enabled && msg.backup != self_) {
    // The parent's own parent may have changed since the join: every ack
    // refreshes the rung-0 backup.
    state.backup_parent = msg.backup;
  }
}

void GroupCastNode::handle_parent_lost(const Envelope& envelope,
                                       const ParentLostMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree || envelope.from != state.tree_parent) return;
  begin_recovery(msg.group, envelope.from);
}

}  // namespace groupcast::core
