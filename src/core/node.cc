#include "core/node.h"

#include <algorithm>
#include <cmath>

#include "core/replication.h"
#include "core/utility.h"
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
      exchange_(transport.simulator_for(self), self, options.retry, rng_) {
  GC_REQUIRE(self < transport.population().size());
  GC_REQUIRE(options_.ripple_ttl >= 1);
  GC_REQUIRE(options_.missed_heartbeats_to_fail >= 1);
  GC_REQUIRE(options_.heartbeat_interval >= sim::SimTime::zero());
  if (options_.reliability.enabled) {
    GC_REQUIRE(options_.reliability.nack_delay > sim::SimTime::zero());
    GC_REQUIRE(options_.reliability.nack_retry_delay > sim::SimTime::zero());
    GC_REQUIRE(options_.reliability.probe_delay > sim::SimTime::zero());
    GC_REQUIRE_MSG(options_.reliability.nack_jitter >= 0.0 &&
                       options_.reliability.nack_jitter <= 1.0,
                   "reliability.nack_jitter must be in [0, 1]");
    GC_REQUIRE_MSG(options_.reliability.max_nack_rounds >= 1,
                   "reliability.max_nack_rounds must be >= 1");
    GC_REQUIRE_MSG(options_.reliability.max_probe_rounds >= 1,
                   "reliability.max_probe_rounds must be >= 1");
    GC_REQUIRE(options_.reliability.send_buffer_cap >= 1);
    GC_REQUIRE_MSG(options_.reliability.ack_every >= 1,
                   "reliability.ack_every must be >= 1");
    if (options_.reliability.flow_control) {
      GC_REQUIRE_MSG(options_.reliability.window >= 1,
                     "reliability.window must be >= 1");
      GC_REQUIRE_MSG(
          options_.reliability.window <= options_.reliability.send_buffer_cap,
          "reliability.window must fit within send_buffer_cap");
    }
  }
  if (options_.replication.enabled) {
    GC_REQUIRE_MSG(options_.replication.replicas >= 1,
                   "replication.replicas must be >= 1");
    GC_REQUIRE_MSG(options_.replication.lease_interval > sim::SimTime::zero(),
                   "replication.lease_interval must be positive");
    GC_REQUIRE_MSG(
        options_.replication.lease_duration >
            options_.replication.lease_interval,
        "replication.lease_duration must exceed the renewal interval");
    // The quorum-round exchange is constructed only behind the flag: its
    // construction splits rng_, which would shift every downstream draw of
    // a replication-off run.  Retries pace at the lease interval and stop
    // by the lease duration — a round still open then has lost its quorum.
    RetryPolicy lease_retry;
    lease_retry.base_timeout = options_.replication.lease_interval;
    lease_retry.max_timeout = options_.replication.lease_duration;
    repl_exchange_.emplace(transport.simulator_for(self), self, lease_retry, rng_);
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
  if (repl_exchange_) repl_exchange_->cancel_all();
  auto& simulator = transport_->simulator_for(self_);
  for (auto& [group, state] : groups_) {
    state.exchange = ReliableExchange::kNoToken;
    state.repl.round = ReliableExchange::kNoToken;
    // A departed node's edge timers must not fire into a dead runtime.
    for (auto& [peer, tx] : state.tx_edges) simulator.cancel(tx.probe_timer);
    for (auto& [peer, rx] : state.rx_edges) simulator.cancel(rx.nack_timer);
  }
  // A departed node stops probing: cancel the shared tick instead of
  // letting it fire into a dead runtime.
  transport_->simulator_for(self_).cancel(heartbeat_timer_);
  for (const auto group : heartbeat_groups_) {
    groups_[group].heartbeat_scheduled = false;
  }
  heartbeat_groups_.clear();
  transport_->simulator_for(self_).cancel(repl_timer_);
  for (const auto group : repl_groups_) {
    groups_[group].repl.tick_scheduled = false;
  }
  repl_groups_.clear();
  running_ = false;
}

sim::SimTime GroupCastNode::now() const {
  return transport_->simulator_for(self_).now();
}

double GroupCastNode::resource_level() {
  if (!cached_resource_level_) {
    cached_resource_level_ = clamp_resource_level(
        options_.advertisement.pinned_resource_level >= 0.0
            ? options_.advertisement.pinned_resource_level
            : transport_->population().sampled_resource_level(
                  self_, options_.advertisement.resource_sample, rng_));
  }
  return *cached_resource_level_;
}

std::vector<overlay::PeerId> GroupCastNode::select_forward_targets(
    overlay::PeerId exclude) {
  // Memoized per (exclude, neighbour generation): repeated forwarding
  // decisions between topology changes reuse the filtered pool and the
  // Eq. 1-5 preference vector instead of re-deriving Nbr(self) and the
  // normalizations each hop.  The cached vectors are the ones the uncached
  // path would compute, and no RNG is drawn while filling the cache, so
  // selections stay bit-identical.
  const std::uint64_t generation = graph_->neighbor_generation(self_);
  SelectionCacheEntry* entry = nullptr;
  for (auto& candidate : selection_cache_) {
    if (candidate.exclude == exclude) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    selection_cache_.emplace_back();
    entry = &selection_cache_.back();
    entry->exclude = exclude;
    entry->generation = generation + 1;  // any value != generation
  }
  if (entry->generation != generation) {
    trace::counters().incr(self_, trace::CounterId::kUtilityCacheMisses);
    entry->generation = generation;
    entry->pool.clear();
    entry->prefs.clear();
    for (const auto n : graph_->neighbors(self_)) {
      if (n != exclude) entry->pool.push_back(n);
    }
  } else {
    trace::counters().incr(self_, trace::CounterId::kUtilityCacheHits);
  }
  const auto& pool = entry->pool;
  if (pool.empty()) return pool;
  const auto& adv = options_.advertisement;
  if (adv.scheme == AnnouncementScheme::kNssa) return pool;

  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             adv.forward_fraction * static_cast<double>(pool.size()))));
  if (want >= pool.size()) return pool;

  if (adv.scheme == AnnouncementScheme::kSsaRandom) {
    const auto idx = rng_.sample_indices(pool.size(), want);
    std::vector<overlay::PeerId> out;
    for (const auto i : idx) out.push_back(pool[i]);
    return out;
  }
  if (entry->prefs.empty()) {
    // Lazily computed on the first utility selection at this generation —
    // after the want >= pool.size() early-outs, exactly where the uncached
    // path first touched resource_level() (whose first call may draw RNG).
    const auto& population = transport_->population();
    std::vector<Candidate> candidates;
    candidates.reserve(pool.size());
    for (const auto n : pool) {
      candidates.push_back(Candidate{population.info(n).capacity,
                                     population.coord_distance_ms(self_, n)});
    }
    entry->prefs = selection_preferences(resource_level(), candidates);
  }
  const auto idx = weighted_sample_without_replacement(entry->prefs, want, rng_);
  std::vector<overlay::PeerId> out;
  for (const auto i : idx) out.push_back(pool[i]);
  return out;
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
  for (const auto target : select_forward_targets(self_)) {
    transport_->send(
        self_, target,
        AdvertiseMsg{group, self_,
                     static_cast<std::uint32_t>(
                         options_.advertisement.ttl - 1)});
  }
  // The creator starts as leaseholder of epoch 1 and majority-acks the
  // group's creation (the epoch-1 advert write) before the lease cycle
  // takes over renewals.
  if (ensure_repl_member(group, self_)) {
    auto& repl = state_of(group).repl;
    repl.leaseholder = true;
    start_repl_round(group, /*handoff=*/false, repl.epoch);
  }
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
  if (!state.on_tree) return;
  if (!state.children.empty() || state.tree_parent == self_) {
    return;  // relay (or root): keep forwarding for the children
  }
  transport_->send(self_, state.tree_parent, LeaveMsg{group, self_});
  drop_edge_state(state, state.tree_parent);
  state.on_tree = false;
  state.tree_parent = overlay::kNoPeer;
  state.depth = kUnknownDepth;
}

void GroupCastNode::publish(GroupId group, std::uint64_t payload_id) {
  GC_REQUIRE(running_);
  const auto it = groups_.find(group);
  GC_REQUIRE_MSG(it != groups_.end() && it->second.on_tree,
                 "publish requires tree membership");
  auto& state = it->second;
  state.seen_payloads.insert(payload_key(self_, payload_id));
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadPublished,
                       self_, trace::kNoNode,
                       trace::pack_provenance(self_, payload_id, 0));
  BufferedPayload payload;
  payload.origin = self_;
  payload.payload_id = payload_id;
  payload.hops = 1;
  if (state.tree_parent != self_ &&
      state.tree_parent != overlay::kNoPeer) {
    send_data(group, state, state.tree_parent, payload);
  }
  for (const auto child : state.children) {
    send_data(group, state, child, payload);
  }
}

void GroupCastNode::publish_chunk(GroupId group, std::uint32_t stream,
                                  std::uint32_t chunk_id,
                                  sim::SimTime deadline,
                                  std::uint32_t payload_bytes) {
  GC_REQUIRE(running_);
  GC_REQUIRE_MSG(stream < (1u << 31), "stream id must fit in 31 bits");
  const auto it = groups_.find(group);
  GC_REQUIRE_MSG(it != groups_.end() && it->second.on_tree,
                 "publish requires tree membership");
  auto& state = it->second;
  BufferedPayload payload;
  payload.origin = self_;
  payload.payload_id = chunk_payload_id(stream, chunk_id);
  payload.hops = 1;
  payload.chunk = true;
  payload.deadline_us = deadline.as_micros();
  payload.chunk_bytes = payload_bytes;
  state.seen_payloads.insert(payload_key(self_, payload.payload_id));
  trace::counters().incr(self_, trace::CounterId::kChunksPublished);
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadPublished,
                       self_, trace::kNoNode,
                       trace::pack_provenance(self_, payload.payload_id, 0));
  if (state.tree_parent != self_ &&
      state.tree_parent != overlay::kNoPeer) {
    send_data(group, state, state.tree_parent, payload);
  }
  for (const auto child : state.children) {
    send_data(group, state, child, payload);
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
  const auto git = groups_.find(group);
  if (git == groups_.end()) return 0;
  const auto it = git->second.tx_edges.find(peer);
  return it != git->second.tx_edges.end() ? it->second.buffer.size() : 0;
}

std::size_t GroupCastNode::pending_depth(GroupId group,
                                         overlay::PeerId peer) const {
  const auto git = groups_.find(group);
  if (git == groups_.end()) return 0;
  const auto it = git->second.tx_edges.find(peer);
  return it != git->second.tx_edges.end() ? it->second.pending.size() : 0;
}

std::size_t GroupCastNode::effective_heartbeat_misses(GroupId group) const {
  const auto it = groups_.find(group);
  if (!options_.adaptive || it == groups_.end()) {
    return options_.missed_heartbeats_to_fail;
  }
  return adaptive_miss_threshold(it->second.hb_miss_ewma,
                                 options_.missed_heartbeats_to_fail);
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
  const auto git = groups_.find(group);
  if (git == groups_.end()) return 0;
  const auto it = git->second.rx_edges.find(peer);
  return it != git->second.rx_edges.end() ? it->second.expected : 0;
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
  // Node- and map-based containers pay roughly three pointers of
  // book-keeping per entry on mainstream allocators; hash sets amortize
  // to about one pointer per bucket plus a node per element.
  constexpr std::size_t kPerEntry = 3 * sizeof(void*);
  std::size_t bytes = sizeof(*this);
  for (const auto& [group, state] : groups_) {
    bytes += kPerEntry + sizeof(GroupId) + sizeof(GroupState);
    bytes += state.children.capacity() * sizeof(overlay::PeerId);
    bytes += state.pending_acks.capacity() * sizeof(overlay::PeerId);
    bytes += state.seen_payloads.memory_bytes();
    bytes += state.seen_queries.memory_bytes();
    bytes += state.child_last_seen.bucket_count() * sizeof(void*) +
             state.child_last_seen.size() *
                 (sizeof(overlay::PeerId) + sizeof(sim::SimTime) + kPerEntry);
    for (const auto& [peer, tx] : state.tx_edges) {
      bytes += kPerEntry + sizeof(overlay::PeerId) + sizeof(EdgeTx);
      bytes += tx.buffer.size() * sizeof(BufferedPayload);
      bytes += tx.pending.size() * sizeof(BufferedPayload);
    }
    for (const auto& [peer, rx] : state.rx_edges) {
      bytes += kPerEntry + sizeof(overlay::PeerId) + sizeof(EdgeRx);
      bytes += rx.stash.size() * (sizeof(BufferedPayload) + kPerEntry);
    }
    bytes += state.repl.members.capacity() * sizeof(overlay::PeerId);
    bytes += state.repl.round_acked.capacity() * sizeof(overlay::PeerId);
    bytes += state.repl.log.capacity() * sizeof(LeaseRecord);
  }
  return bytes;
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

void GroupCastNode::start_ladder(GroupId group) {
  auto& state = state_of(group);
  state.ladder_attempts = 0;
  state.search_pending = false;
  const bool advert_rung_ok = state.has_advert &&
                              state.advert_parent != self_ &&
                              state.advert_parent != overlay::kNoPeer &&
                              state.advert_parent != state.avoid;
  // Rung 0 (replication only): the backup parent precomputed by our old
  // parent — its own parent, so provably outside our subtree — is tried
  // before the regular ladder; a live backup re-adopts the orphan within
  // one round trip.
  const bool backup_rung_ok =
      options_.replication.enabled && state.recovering &&
      state.backup_parent != overlay::kNoPeer &&
      state.backup_parent != self_ && state.backup_parent != state.avoid;
  state.rung = backup_rung_ok   ? Rung::kBackup
               : advert_rung_ok ? Rung::kAdvertParent
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
      state.exchange = exchange_.begin(
          [this, group](std::size_t) {
            auto& st = state_of(group);
            ++st.ladder_attempts;
            transport_->send(self_, st.backup_parent, JoinMsg{group, self_});
          },
          give_up);
      break;
    case Rung::kAdvertParent:
      state.exchange = exchange_.begin(
          [this, group](std::size_t) {
            auto& st = state_of(group);
            ++st.ladder_attempts;
            transport_->send(self_, st.advert_parent, JoinMsg{group, self_});
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
    case Rung::kBackup: {
      // The backup was dead too: fall through to the regular first rung.
      const bool advert_rung_ok = state.has_advert &&
                                  state.advert_parent != self_ &&
                                  state.advert_parent != overlay::kNoPeer &&
                                  state.advert_parent != state.avoid;
      state.rung = advert_rung_ok ? Rung::kAdvertParent : Rung::kRipple;
      run_rung(group);
      return;
    }
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
  {
    auto& simulator = transport_->simulator_for(self_);
    for (auto& [peer, tx] : state.tx_edges) simulator.cancel(tx.probe_timer);
    for (auto& [peer, rx] : state.rx_edges) simulator.cancel(rx.nack_timer);
    state.tx_edges.clear();
    state.rx_edges.clear();
    state.blocked_edges = 0;  // every parked payload died with its edge
  }
  if (!state.children.empty() && !state.dissolved_once) {
    // Dissolve the tree position: the children re-attach on their own,
    // and as a now-childless node we get one unguarded retry of the
    // whole ladder before reporting failure.
    for (const auto child : state.children) {
      transport_->send(self_, child, ParentLostMsg{group});
    }
    state.children.clear();
    state.child_last_seen.clear();
    state.pending_acks.clear();
    state.dissolved_once = true;
    state.attach_depth_limit = kUnknownDepth;
    start_ladder(group);
    return;
  }
  if (!state.children.empty()) {
    for (const auto child : state.children) {
      transport_->send(self_, child, ParentLostMsg{group});
    }
    state.children.clear();
    state.child_last_seen.clear();
    state.pending_acks.clear();
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
  drop_edge_state(state, parent);
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
  // their deferred acks now, carrying our freshly-known depth.
  for (const auto child : state.pending_acks) {
    transport_->send(self_, child,
                     JoinAckMsg{group, state.depth, offered_backup(state)});
    if (options_.reliability.enabled) {
      // The deferred ack completes the join handshake: give the child a
      // fresh edge incarnation so its expected sequence starts in sync.
      drop_edge_state(state, child);
      reset_tx_edge(group, state, child);
    }
  }
  // Children retained through recovery get an unsolicited depth refresh so
  // descendant depths (the orphan cycle guard's input) converge within one
  // round instead of one heartbeat interval per tree level.
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
  heartbeat_groups_.insert(std::upper_bound(heartbeat_groups_.begin(),
                                            heartbeat_groups_.end(), group),
                           group);
  // All enrolled groups share one cancellable wheel timer per node; a
  // group enrolling between ticks joins the next one (its liveness
  // deadlines are timestamp-based, so an early first service is safe).
  auto& simulator = transport_->simulator_for(self_);
  if (!simulator.timer_pending(heartbeat_timer_)) {
    heartbeat_timer_ = simulator.schedule_timer(options_.heartbeat_interval,
                                                &heartbeat_thunk, this);
  }
}

void GroupCastNode::heartbeat_thunk(void* context, std::uint64_t) {
  static_cast<GroupCastNode*>(context)->node_heartbeat_tick();
}

void GroupCastNode::node_heartbeat_tick() {
  if (!running_) return;
  // Swap the enrolment list into a reused scratch buffer (no per-tick
  // allocation): heartbeat_tick re-enrols groups that still hold a tree
  // role, which re-arms the timer for the next round.
  heartbeat_scratch_.clear();
  heartbeat_scratch_.swap(heartbeat_groups_);
  if (heartbeat_scratch_.size() > 1) {
    trace::counters().incr(self_, trace::CounterId::kTimersCoalesced,
                           heartbeat_scratch_.size() - 1);
  }
  for (const auto group : heartbeat_scratch_) {
    if (!running_) break;
    heartbeat_tick(group);
  }
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
      drop_edge_state(state, ghost);
    }
    // A pure relay whose last child was pruned folds back off the tree.
    if (!ghosts.empty() && !state.subscribed && state.on_tree &&
        state.children.empty() && state.tree_parent != self_) {
      transport_->send(self_, state.tree_parent, LeaveMsg{group, self_});
      drop_edge_state(state, state.tree_parent);
      state.on_tree = false;
      state.tree_parent = overlay::kNoPeer;
      state.depth = kUnknownDepth;
    }
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
  drop_edge_state(state, dead_parent);
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
        } else if constexpr (std::is_same_v<T, DataMsg>) {
          handle_data(envelope, msg);
        } else if constexpr (std::is_same_v<T, ChunkMsg>) {
          handle_chunk(envelope, msg);
        } else if constexpr (std::is_same_v<T, LeaveMsg>) {
          handle_leave(envelope, msg);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          handle_heartbeat(envelope, msg);
        } else if constexpr (std::is_same_v<T, HeartbeatAckMsg>) {
          handle_heartbeat_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, ParentLostMsg>) {
          handle_parent_lost(envelope, msg);
        } else if constexpr (std::is_same_v<T, ReliableDataMsg>) {
          handle_reliable_data(envelope, msg);
        } else if constexpr (std::is_same_v<T, DataNackMsg>) {
          handle_data_nack(envelope, msg);
        } else if constexpr (std::is_same_v<T, DataAckMsg>) {
          handle_data_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, SeqSyncMsg>) {
          handle_seq_sync(envelope, msg);
        } else if constexpr (std::is_same_v<T, FlowControlMsg>) {
          handle_flow_control(envelope, msg);
        } else if constexpr (std::is_same_v<T, LeaseMsg>) {
          handle_lease(envelope, msg);
        } else if constexpr (std::is_same_v<T, LeaseAckMsg>) {
          handle_lease_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, ReplicateMsg>) {
          handle_replicate(envelope, msg);
        } else if constexpr (std::is_same_v<T, ReplicateAckMsg>) {
          handle_replicate_ack(envelope, msg);
        } else if constexpr (std::is_same_v<T, HandoffMsg>) {
          handle_handoff(envelope, msg);
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
  for (const auto target : select_forward_targets(envelope.from)) {
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
    if (options_.reliability.enabled) {
      // The join handshake is where a (re)attaching child re-syncs its
      // expected sequence: a fresh edge incarnation rides right behind
      // the ack (per-pair FIFO), so the child never NACKs into whatever
      // epoch its previous parent link was on.
      drop_edge_state(state, msg.child);
      reset_tx_edge(msg.group, state, msg.child);
    }
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

void GroupCastNode::handle_data(const Envelope& envelope,
                                const DataMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree) return;
  BufferedPayload payload;
  payload.origin = msg.origin;
  payload.payload_id = msg.payload_id;
  payload.hops = msg.hops;
  deliver_payload(msg.group, state, envelope.from, payload);
}

void GroupCastNode::handle_chunk(const Envelope& envelope,
                                 const ChunkMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree) return;
  BufferedPayload payload;
  payload.seq = msg.seq;
  payload.origin = msg.origin;
  payload.payload_id = chunk_payload_id(msg.stream, msg.chunk_id);
  payload.hops = msg.hops;
  payload.chunk = true;
  payload.deadline_us = msg.deadline_us;
  payload.chunk_bytes = msg.payload_bytes;
  if (msg.epoch == 0) {
    // Fire-and-forget chunk (reliability off at the sender): the DataMsg
    // path, with the chunk descriptor riding along.
    deliver_payload(msg.group, state, envelope.from, payload);
    return;
  }
  accept_sequenced(envelope, msg.group, state, msg.epoch, msg.seq, payload);
}

void GroupCastNode::deliver_payload(GroupId group, GroupState& state,
                                    overlay::PeerId via,
                                    const BufferedPayload& payload) {
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
    send_data(group, state, state.tree_parent, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
  for (const auto child : state.children) {
    if (child == via) continue;
    send_data(group, state, child, forward);
    trace::counters().incr(self_, trace::CounterId::kMessagesForwarded);
  }
}

// ------------------------------------------------- reliable data plane

namespace {
std::uint64_t pack_edge(GroupId group, overlay::PeerId peer) {
  return (static_cast<std::uint64_t>(group) << 32) | peer;
}
}  // namespace

sim::SimTime GroupCastNode::jittered(sim::SimTime base, double jitter) {
  const double stretch = 1.0 + jitter * rng_.uniform();
  return sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(base.as_micros()) * stretch));
}

void GroupCastNode::ewma_update(double& estimate, double sample) {
  constexpr double kEwmaAlpha = 0.125;  // 1/8: roughly an 8-sample memory
  estimate += kEwmaAlpha * (sample - estimate);
}

sim::SimTime GroupCastNode::nack_delay_for(const EdgeRx& rx) const {
  const auto base = options_.reliability.nack_delay;
  if (!options_.adaptive) return base;
  // The higher the measured loss, the more likely a gap is a real hole
  // rather than reordering in flight: shrink the batching delay, floored
  // at a quarter of the configured base.
  const double scale = std::max(0.25, 1.0 - rx.loss_ewma);
  return sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(base.as_micros()) * scale));
}

sim::SimTime GroupCastNode::nack_retry_for(const EdgeRx& rx) const {
  const auto base = options_.reliability.nack_retry_delay;
  if (!options_.adaptive || rx.repair_ewma_us <= 0.0) return base;
  // Pace retries by the measured repair time (2x covers the NACK plus
  // retransmission round trip): never faster than the first-NACK delay,
  // never slower than the configured retry constant.
  const auto lo =
      std::min(nack_delay_for(rx).as_micros(), base.as_micros());
  const auto scaled = static_cast<std::int64_t>(2.0 * rx.repair_ewma_us);
  return sim::SimTime::micros(std::clamp(scaled, lo, base.as_micros()));
}

MessageBody GroupCastNode::payload_msg(GroupId group, std::uint32_t epoch,
                                       std::uint64_t seq,
                                       const BufferedPayload& payload) const {
  if (payload.chunk) {
    return ChunkMsg{group,
                    payload.origin,
                    chunk_stream(payload.payload_id),
                    chunk_index(payload.payload_id),
                    payload.deadline_us,
                    payload.chunk_bytes,
                    epoch,
                    seq,
                    payload.hops};
  }
  if (epoch == 0) {
    return DataMsg{group, payload.origin, payload.payload_id, payload.hops};
  }
  return ReliableDataMsg{group,        payload.origin, payload.payload_id,
                         epoch,        seq,            payload.hops};
}

void GroupCastNode::send_data(GroupId group, GroupState& state,
                              overlay::PeerId to,
                              const BufferedPayload& payload) {
  if (!options_.reliability.enabled) {
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kPayloadSent, self_, to,
        trace::pack_provenance(payload.origin, payload.payload_id,
                               payload.hops));
    transport_->send(self_, to, payload_msg(group, 0, 0, payload));
    return;
  }
  auto it = state.tx_edges.find(to);
  if (options_.reliability.flow_control && it != state.tx_edges.end()) {
    // Window gate.  A payload parks when the window is full, the peer
    // asked for quiet, or older payloads are already parked (FIFO: a new
    // payload must never overtake a parked one).  A missing edge is
    // trivially open: nothing is in flight yet and window >= 1.
    auto& tx = it->second;
    if (!tx.pending.empty() || tx.peer_throttled ||
        tx.next_seq - tx.cum_acked >= options_.reliability.window) {
      queue_blocked(group, state, to, tx, payload);
      return;
    }
  }
  trace::tracer().emit(now().as_micros(), trace::EventKind::kPayloadSent,
                       self_, to,
                       trace::pack_provenance(payload.origin,
                                              payload.payload_id,
                                              payload.hops));
  if (it == state.tx_edges.end()) {
    // First payload over this directed edge: open the incarnation (the
    // SeqSync rides ahead of the data on the FIFO pair link).
    reset_tx_edge(group, state, to);
    it = state.tx_edges.find(to);
  }
  transmit_now(group, to, it->second, payload);
}

void GroupCastNode::transmit_now(GroupId group, overlay::PeerId to,
                                 EdgeTx& tx,
                                 const BufferedPayload& payload) {
  if (tx.buffer.size() >= options_.reliability.send_buffer_cap) {
    tx.buffer.pop_front();  // oldest unacked copy falls off
  }
  const std::uint64_t seq = tx.next_seq++;
  BufferedPayload entry = payload;
  entry.seq = seq;
  tx.buffer.push_back(entry);
  if (tx.buffer.size() > tx.high_water) {
    // Watermark per directed edge: each edge contributes its own lifetime
    // peak to the counter.  (A node-wide maximum used to swallow a second
    // edge's growth until it beat the first edge's record, so the counter
    // under-reported total retransmit-buffer memory.)
    trace::counters().incr(self_, trace::CounterId::kSendBufferHighWater,
                           tx.buffer.size() - tx.high_water);
    tx.high_water = tx.buffer.size();
  }
  if (options_.reliability.flow_control) {
    trace::histograms().record(trace::HistogramId::kWindowOccupancy,
                               tx.next_seq - tx.cum_acked);
  }
  transport_->send(self_, to, payload_msg(group, tx.epoch, seq, payload));
  maybe_schedule_probe(group, to, tx);
}

void GroupCastNode::queue_blocked(GroupId group, GroupState& state,
                                  overlay::PeerId to, EdgeTx& tx,
                                  const BufferedPayload& payload) {
  if (tx.pending.empty()) {
    if (state.blocked_edges++ == 0) {
      // First blocked edge in the group: the throttle episode starts now.
      state.throttled_since = now();
      signal_upstream(group, state, true);
    }
    // Keep an ack clock running even when everything in flight is already
    // acked (pure peer throttle): the probe's re-announcement solicits the
    // ack — or the resume — that reopens this window.
    maybe_schedule_probe(group, to, tx);
  }
  tx.pending.push_back(payload);
  trace::counters().incr(self_, trace::CounterId::kFlowBlocked);
}

void GroupCastNode::drain_tx(GroupId group, GroupState& state,
                             overlay::PeerId to, EdgeTx& tx) {
  if (!options_.reliability.flow_control || tx.pending.empty()) return;
  bool drained = false;
  while (!tx.pending.empty() && !tx.peer_throttled &&
         tx.next_seq - tx.cum_acked < options_.reliability.window) {
    const BufferedPayload payload = tx.pending.front();
    tx.pending.pop_front();
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kPayloadSent, self_, to,
        trace::pack_provenance(payload.origin, payload.payload_id,
                               payload.hops));
    transmit_now(group, to, tx, payload);
    drained = true;
  }
  if (drained && tx.pending.empty()) {
    if (--state.blocked_edges == 0) {
      trace::histograms().record(
          trace::HistogramId::kThrottleUs,
          static_cast<std::uint64_t>(
              (now() - state.throttled_since).as_micros()));
      signal_upstream(group, state, false);
    }
  }
}

void GroupCastNode::discard_pending(GroupState& state, EdgeTx& tx) {
  if (tx.pending.empty()) return;
  tx.pending.clear();
  // No resume signal and no throttle histogram sample: the edge is being
  // torn down mid-episode; the upstream source recovers via its own probe.
  if (state.blocked_edges > 0) --state.blocked_edges;
}

void GroupCastNode::signal_upstream(GroupId group, GroupState& state,
                                    bool throttled) {
  // The dominant data flow runs root-down, so this node's source is its
  // tree parent.  The root (or an orphan) has no upstream; its publisher
  // observes backpressure through the kFlowBlocked counter instead.
  if (!state.on_tree || state.tree_parent == self_ ||
      state.tree_parent == overlay::kNoPeer) {
    return;
  }
  if (throttled) {
    trace::counters().incr(self_, trace::CounterId::kFlowThrottles);
  }
  transport_->send(self_, state.tree_parent, FlowControlMsg{group, throttled});
}

void GroupCastNode::handle_flow_control(const Envelope& envelope,
                                        const FlowControlMsg& msg) {
  if (!options_.reliability.enabled || !options_.reliability.flow_control) {
    return;
  }
  const auto git = groups_.find(msg.group);
  if (git == groups_.end()) return;
  auto& state = git->second;
  const auto it = state.tx_edges.find(envelope.from);
  if (it == state.tx_edges.end()) return;
  auto& tx = it->second;
  tx.peer_throttled = msg.throttled;
  if (msg.throttled) {
    // While paused, keep the probe alive: its next round doubles as the
    // resume retry in case the peer's release signal gets lost.
    maybe_schedule_probe(msg.group, envelope.from, tx);
  } else {
    drain_tx(msg.group, state, envelope.from, tx);
  }
}

void GroupCastNode::reset_tx_edge(GroupId group, GroupState& state,
                                  overlay::PeerId peer) {
  auto& tx = state.tx_edges[peer];
  transport_->simulator_for(self_).cancel(tx.probe_timer);
  discard_pending(state, tx);
  const std::uint32_t epoch = tx.epoch + 1;
  const std::size_t high_water = tx.high_water;
  tx = EdgeTx{};
  tx.epoch = epoch;
  tx.high_water = high_water;  // lifetime peak, like the epoch
  transport_->send(self_, peer, SeqSyncMsg{group, epoch, 0, 0});
}

void GroupCastNode::drop_edge_state(GroupState& state,
                                    overlay::PeerId peer) {
  auto& simulator = transport_->simulator_for(self_);
  if (const auto it = state.tx_edges.find(peer);
      it != state.tx_edges.end()) {
    // Tombstone, not erase: the epoch counter must survive the teardown
    // so the next incarnation of this directed edge gets a number the
    // receiver has never seen.  (Erasing would restart at epoch 1, and a
    // receiver still synced to the old epoch 1 would silently swallow
    // the restarted sequence space as duplicates.)
    simulator.cancel(it->second.probe_timer);
    discard_pending(state, it->second);
    const std::uint32_t epoch = it->second.epoch;
    const std::size_t high_water = it->second.high_water;
    it->second = EdgeTx{};
    it->second.epoch = epoch;
    it->second.high_water = high_water;  // lifetime peak, like the epoch
  }
  if (const auto it = state.rx_edges.find(peer);
      it != state.rx_edges.end()) {
    simulator.cancel(it->second.nack_timer);
    state.rx_edges.erase(it);
  }
}

void GroupCastNode::maybe_schedule_nack(GroupId group, overlay::PeerId peer,
                                        EdgeRx& rx) {
  auto& simulator = transport_->simulator_for(self_);
  if (simulator.timer_pending(rx.nack_timer)) return;  // one in flight
  rx.nack_timer = simulator.schedule_timer(
      jittered(nack_delay_for(rx), options_.reliability.nack_jitter),
      &nack_thunk, this, pack_edge(group, peer));
}

void GroupCastNode::maybe_schedule_probe(GroupId group,
                                         overlay::PeerId peer, EdgeTx& tx) {
  auto& simulator = transport_->simulator_for(self_);
  if (simulator.timer_pending(tx.probe_timer)) return;
  tx.probe_rounds = 0;
  tx.acked_at_last_probe = tx.cum_acked;
  tx.probe_timer = simulator.schedule_timer(
      jittered(options_.reliability.probe_delay,
               options_.reliability.nack_jitter),
      &probe_thunk, this, pack_edge(group, peer));
}

void GroupCastNode::nack_thunk(void* context, std::uint64_t packed) {
  static_cast<GroupCastNode*>(context)->on_nack_timer(
      static_cast<GroupId>(packed >> 32),
      static_cast<overlay::PeerId>(packed & 0xFFFFFFFFull));
}

void GroupCastNode::probe_thunk(void* context, std::uint64_t packed) {
  static_cast<GroupCastNode*>(context)->on_probe_timer(
      static_cast<GroupId>(packed >> 32),
      static_cast<overlay::PeerId>(packed & 0xFFFFFFFFull));
}

void GroupCastNode::on_nack_timer(GroupId group, overlay::PeerId peer) {
  if (!running_) return;
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  auto& state = git->second;
  const auto it = state.rx_edges.find(peer);
  if (it == state.rx_edges.end()) return;
  auto& rx = it->second;
  if (rx.stash.empty() && rx.expected >= rx.tail_next) {
    rx.nack_rounds = 0;  // the gap closed while the timer was pending
    return;
  }
  if (rx.nack_rounds >= options_.reliability.max_nack_rounds) {
    // The sender's buffer no longer holds the gap (or the edge is dead):
    // skip past it instead of deadlocking the in-order pipeline.
    rx.nack_rounds = 0;
    rx.expected =
        rx.stash.empty() ? rx.tail_next : rx.stash.begin()->first;
    drain_rx(group, state, peer, rx);
    return;
  }
  // One batched request: base is the first missing sequence, bit i set
  // when base + i is also missing (parked copies punch holes in the mask).
  const std::uint64_t base = rx.expected;
  std::uint64_t mask = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seq = base + i;
    if (seq >= rx.tail_next) break;
    if (rx.stash.find(seq) == rx.stash.end()) mask |= (1ull << i);
  }
  if (mask == 0) {
    rx.nack_rounds = 0;
    return;
  }
  transport_->send(self_, peer, DataNackMsg{group, rx.epoch, base, mask});
  trace::counters().incr(self_, trace::CounterId::kNacksSent);
  if (options_.adaptive) {
    trace::histograms().record(
        trace::HistogramId::kEstimatedLoss,
        static_cast<std::uint64_t>(std::llround(rx.loss_ewma * 1000.0)));
  }
  if (rx.nack_rounds == 0) rx.last_nack_at = now();  // repair clock starts
  ++rx.nack_rounds;
  // Re-arm on the (longer) retry cadence: no second NACK for this gap
  // while the requested retransmission is presumed in flight.
  rx.nack_timer = transport_->simulator_for(self_).schedule_timer(
      jittered(nack_retry_for(rx), options_.reliability.nack_jitter),
      &nack_thunk, this, pack_edge(group, peer));
}

void GroupCastNode::on_probe_timer(GroupId group, overlay::PeerId peer) {
  if (!running_) return;
  const auto git = groups_.find(group);
  if (git == groups_.end()) return;
  auto& state = git->second;
  const auto it = state.tx_edges.find(peer);
  if (it == state.tx_edges.end()) return;
  auto& tx = it->second;
  if (options_.reliability.flow_control && tx.peer_throttled) {
    // The peer's resume may have been lost (or the peer died throttled):
    // a full probe interval of silence is permission to retry.  The peer
    // simply re-throttles if it is still congested.
    tx.peer_throttled = false;
    drain_tx(group, state, peer, tx);
  }
  if (tx.buffer.empty() && tx.pending.empty()) {
    tx.probe_rounds = 0;  // everything acked: go quiet
    return;
  }
  if (tx.cum_acked > tx.acked_at_last_probe) {
    tx.probe_rounds = 0;  // the receiver is making progress
  } else {
    ++tx.probe_rounds;
  }
  tx.acked_at_last_probe = tx.cum_acked;
  if (tx.probe_rounds > options_.reliability.max_probe_rounds) {
    // Rounds of silence: the receiver is gone (heartbeats prune the tree
    // edge separately); stop holding its unacked tail.
    tx.buffer.clear();
    discard_pending(state, tx);
    tx.probe_rounds = 0;
    return;
  }
  // Tail-loss detection: re-announce [base, next) so a receiver that lost
  // the tail (or the original SeqSync) sees the gap and NACKs it.  base
  // is the oldest sequence still retransmittable — a receiver adopting
  // this announcement after losing the handshake starts there, not at
  // next_seq, so the buffered backlog is recovered instead of skipped.
  const std::uint64_t base =
      tx.buffer.empty() ? tx.next_seq : tx.buffer.front().seq;
  transport_->send(self_, peer, SeqSyncMsg{group, tx.epoch, base, tx.next_seq});
  tx.probe_timer = transport_->simulator_for(self_).schedule_timer(
      jittered(options_.reliability.probe_delay,
               options_.reliability.nack_jitter),
      &probe_thunk, this, pack_edge(group, peer));
}

void GroupCastNode::drain_rx(GroupId group, GroupState& state,
                             overlay::PeerId from, EdgeRx& rx) {
  while (!rx.stash.empty() && rx.stash.begin()->first == rx.expected) {
    const BufferedPayload parked = rx.stash.begin()->second;
    rx.stash.erase(rx.stash.begin());
    ++rx.expected;
    ++rx.delivered_since_ack;
    deliver_payload(group, state, from, parked);
  }
  if (rx.delivered_since_ack >= options_.reliability.ack_every) {
    rx.delivered_since_ack = 0;
    transport_->send(self_, from, DataAckMsg{group, rx.epoch, rx.expected});
  }
  if (!rx.stash.empty() || rx.expected < rx.tail_next) {
    maybe_schedule_nack(group, from, rx);
  }
}

void GroupCastNode::handle_reliable_data(const Envelope& envelope,
                                         const ReliableDataMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree) return;
  BufferedPayload payload;
  payload.seq = msg.seq;
  payload.origin = msg.origin;
  payload.payload_id = msg.payload_id;
  payload.hops = msg.hops;
  accept_sequenced(envelope, msg.group, state, msg.epoch, msg.seq, payload);
}

void GroupCastNode::accept_sequenced(const Envelope& envelope, GroupId group,
                                     GroupState& state, std::uint32_t epoch,
                                     std::uint64_t seq,
                                     const BufferedPayload& payload) {
  const auto it = state.rx_edges.find(envelope.from);
  if (it == state.rx_edges.end() || !it->second.synced ||
      it->second.epoch != epoch) {
    // No synced incarnation matches (the SeqSync was lost, or this copy
    // belongs to a torn-down incarnation): drop it — the sender's probe
    // re-announces the sync, and resuming mid-stream by guessing the
    // base sequence is exactly the NACK storm the handshake avoids.
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_,
        envelope.from,
        static_cast<std::uint64_t>(trace::DropReason::kStaleEpoch));
    return;
  }
  auto& rx = it->second;
  if (rx.tail_next < seq + 1) rx.tail_next = seq + 1;
  if (seq < rx.expected || rx.stash.count(seq) != 0) {
    // Retransmission raced the original (or a second NACK round): the
    // sequence layer absorbs the duplicate before payload dedup sees it.
    trace::counters().incr(self_, trace::CounterId::kDupsSuppressed);
    trace::counters().incr(self_, trace::CounterId::kMessagesDropped);
    trace::tracer().emit(
        now().as_micros(), trace::EventKind::kMessageDropped, self_,
        envelope.from,
        static_cast<std::uint64_t>(trace::DropReason::kDuplicate));
    return;
  }
  if (options_.adaptive) {
    // One loss sample per accepted sequenced arrival: in-order is a hit,
    // a gap means at least one copy ahead of us went missing.
    ewma_update(rx.loss_ewma, seq == rx.expected ? 0.0 : 1.0);
  }
  if (seq == rx.expected) {
    if (rx.nack_rounds > 0) {
      // This in-order arrival closes a NACKed gap: record first-NACK to
      // repair time for the self-tuning transport work.
      const auto repair_us =
          static_cast<std::uint64_t>((now() - rx.last_nack_at).as_micros());
      trace::histograms().record(trace::HistogramId::kNackRepairUs,
                                 repair_us);
      if (options_.adaptive) {
        ewma_update(rx.repair_ewma_us, static_cast<double>(repair_us));
      }
    }
    ++rx.expected;
    ++rx.delivered_since_ack;
    rx.nack_rounds = 0;  // in-order progress
    deliver_payload(group, state, envelope.from, payload);
    drain_rx(group, state, envelope.from, rx);
    return;
  }
  // Gap: park the payload and arm the batched NACK.
  rx.stash.emplace(seq, payload);
  maybe_schedule_nack(group, envelope.from, rx);
}

void GroupCastNode::handle_data_nack(const Envelope& envelope,
                                     const DataNackMsg& msg) {
  auto& state = state_of(msg.group);
  const auto it = state.tx_edges.find(envelope.from);
  if (it == state.tx_edges.end() || it->second.epoch != msg.epoch) {
    return;  // stale incarnation
  }
  auto& tx = it->second;
  // base is an implicit cumulative ack: every sequence below it arrived.
  if (msg.base_seq > tx.cum_acked) tx.cum_acked = msg.base_seq;
  while (!tx.buffer.empty() && tx.buffer.front().seq < tx.cum_acked) {
    tx.buffer.pop_front();
  }
  if (!tx.buffer.empty()) {
    const std::uint64_t front = tx.buffer.front().seq;
    for (std::uint64_t i = 0; i < 64; ++i) {
      if ((msg.missing & (1ull << i)) == 0) continue;
      const std::uint64_t seq = msg.base_seq + i;
      if (seq < front || seq >= tx.next_seq) continue;  // fell off / unsent
      const auto& entry = tx.buffer[static_cast<std::size_t>(seq - front)];
      trace::tracer().emit(
          now().as_micros(), trace::EventKind::kPayloadRetransmit, self_,
          envelope.from,
          trace::pack_provenance(entry.origin, entry.payload_id, entry.hops));
      transport_->send(self_, envelope.from,
                       payload_msg(msg.group, tx.epoch, entry.seq, entry));
      trace::counters().incr(self_, trace::CounterId::kRetransmits);
    }
  }
  // The advanced cumulative ack may have reopened the window; retransmits
  // go first so the receiver's gap is filled before new data lands.
  drain_tx(msg.group, state, envelope.from, tx);
}

void GroupCastNode::handle_data_ack(const Envelope& envelope,
                                    const DataAckMsg& msg) {
  auto& state = state_of(msg.group);
  const auto it = state.tx_edges.find(envelope.from);
  if (it == state.tx_edges.end() || it->second.epoch != msg.epoch) return;
  auto& tx = it->second;
  if (msg.cumulative > tx.cum_acked) tx.cum_acked = msg.cumulative;
  while (!tx.buffer.empty() && tx.buffer.front().seq < tx.cum_acked) {
    tx.buffer.pop_front();
  }
  drain_tx(msg.group, state, envelope.from, tx);  // ack-clocked advancement
}

void GroupCastNode::handle_seq_sync(const Envelope& envelope,
                                    const SeqSyncMsg& msg) {
  auto& state = state_of(msg.group);
  if (!state.on_tree) return;
  auto& rx = state.rx_edges[envelope.from];
  if (!rx.synced || rx.epoch != msg.epoch) {
    // New incarnation of the inbound edge: adopt its retransmittable
    // window [base, next) wholesale.  This is the receiving half of the
    // reattach re-sync — nothing before base_seq will ever be NACKed,
    // and when the handshake SeqSync itself was lost, aligning to the
    // probe's base (the sender's buffer front) recovers the buffered
    // backlog instead of skipping it.
    transport_->simulator_for(self_).cancel(rx.nack_timer);
    rx = EdgeRx{};
    rx.epoch = msg.epoch;
    rx.synced = true;
    rx.expected = msg.base_seq;
    rx.tail_next = msg.next_seq;
    if (rx.expected < rx.tail_next) {
      maybe_schedule_nack(msg.group, envelope.from, rx);
    }
    return;
  }
  if (msg.base_seq > rx.expected) {
    // The sender can no longer retransmit anything below base: deliver
    // whatever of the stash survives (in order) and give up on the rest —
    // NACKing below base would spin forever.
    while (!rx.stash.empty() && rx.stash.begin()->first < msg.base_seq) {
      const BufferedPayload parked = rx.stash.begin()->second;
      rx.stash.erase(rx.stash.begin());
      ++rx.delivered_since_ack;
      deliver_payload(msg.group, state, envelope.from, parked);
    }
    rx.expected = msg.base_seq;
    rx.nack_rounds = 0;
    drain_rx(msg.group, state, envelope.from, rx);
  }
  if (msg.next_seq > rx.tail_next) rx.tail_next = msg.next_seq;
  if (!rx.stash.empty() || rx.expected < rx.tail_next) {
    maybe_schedule_nack(msg.group, envelope.from, rx);
    return;
  }
  // Caught up: the announcement is the sender's ack-overdue probe, so
  // answer with the cumulative ack that lets it trim and go quiet.
  rx.delivered_since_ack = 0;
  transport_->send(self_, envelope.from,
                   DataAckMsg{msg.group, rx.epoch, rx.expected});
}

void GroupCastNode::handle_leave(const Envelope& /*envelope*/,
                                 const LeaveMsg& msg) {
  auto& state = state_of(msg.group);
  erase_value(state.children, msg.child);
  erase_value(state.pending_acks, msg.child);
  state.child_last_seen.erase(msg.child);
  drop_edge_state(state, msg.child);
  // A pure relay whose last child left can leave too.
  if (!state.subscribed && state.on_tree && state.children.empty() &&
      state.tree_parent != self_) {
    transport_->send(self_, state.tree_parent, LeaveMsg{msg.group, self_});
    drop_edge_state(state, state.tree_parent);
    state.on_tree = false;
    state.tree_parent = overlay::kNoPeer;
    state.depth = kUnknownDepth;
  }
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

// -------------------------------------------- rendezvous replication
// docs/ROBUSTNESS.md, "Rendezvous replication & quorum handoff".

bool GroupCastNode::ensure_repl_member(GroupId group,
                                       overlay::PeerId rendezvous) {
  if (!options_.replication.enabled) return false;
  if (rendezvous == overlay::kNoPeer) return false;
  auto& repl = state_of(group).repl;
  if (repl.member) return repl.origin == rendezvous;
  const auto population = transport_->population().size();
  const std::size_t count =
      std::min(options_.replication.replicas,
               population > 0 ? population - 1 : 0);
  // The member set is always derived *unfiltered*: every member — and any
  // subscriber climbing the rendezvous rung — must name the same peers no
  // matter how its liveness view has drifted.
  std::vector<overlay::PeerId> members{rendezvous};
  for (const auto replica :
       rendezvous_replicas(group, rendezvous, population, count)) {
    members.push_back(replica);
  }
  if (std::find(members.begin(), members.end(), self_) == members.end()) {
    return false;
  }
  repl.member = true;
  repl.origin = rendezvous;
  repl.members = std::move(members);
  repl.epoch = 1;
  repl.promised = 1;
  repl.leader = rendezvous;
  repl.log.push_back(LeaseRecord{1, rendezvous});
  repl.last_lease_seen = now();
  maybe_schedule_repl_tick(group);
  return true;
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

void GroupCastNode::maybe_schedule_repl_tick(GroupId group) {
  if (!options_.replication.enabled || !running_) return;
  auto& repl = state_of(group).repl;
  if (!repl.member || repl.tick_scheduled) return;
  repl.tick_scheduled = true;
  repl_groups_.insert(
      std::upper_bound(repl_groups_.begin(), repl_groups_.end(), group),
      group);
  // Same wheel-timer shape as the heartbeat tick: one shared cancellable
  // timer per node, groups enrol for the next round.  The cadence is a
  // fixed lease_interval with no jitter, so renewal traffic is a pure
  // function of the scenario, not of RNG interleaving.
  auto& simulator = transport_->simulator_for(self_);
  if (!simulator.timer_pending(repl_timer_)) {
    repl_timer_ = simulator.schedule_timer(
        options_.replication.lease_interval, &repl_thunk, this);
  }
}

void GroupCastNode::repl_thunk(void* context, std::uint64_t) {
  static_cast<GroupCastNode*>(context)->node_repl_tick();
}

void GroupCastNode::node_repl_tick() {
  if (!running_) return;
  repl_scratch_.clear();
  repl_scratch_.swap(repl_groups_);
  if (repl_scratch_.size() > 1) {
    trace::counters().incr(self_, trace::CounterId::kTimersCoalesced,
                           repl_scratch_.size() - 1);
  }
  for (const auto group : repl_scratch_) {
    if (!running_) break;
    repl_tick(group);
  }
}

void GroupCastNode::repl_tick(GroupId group) {
  auto& repl = state_of(group).repl;
  repl.tick_scheduled = false;
  if (!running_ || !repl.member) return;
  if (repl.leaseholder) {
    if (repl.round == ReliableExchange::kNoToken) {
      start_repl_round(group, /*handoff=*/false, repl.epoch);
    }
  } else if (repl.round == ReliableExchange::kNoToken) {
    // Takeover: member rank staggers the patience window, so the lowest
    // surviving rank proposes first and concurrent proposals are the
    // partition-race exception, not the norm.
    const auto rank = static_cast<std::int64_t>(
        std::find(repl.members.begin(), repl.members.end(), self_) -
        repl.members.begin());
    const auto patience = options_.replication.lease_duration +
                          options_.replication.lease_interval * rank;
    if (now() - repl.last_lease_seen > patience) {
      start_repl_round(group, /*handoff=*/true,
                       std::max(repl.epoch, repl.promised) + 1);
    }
  }
  maybe_schedule_repl_tick(group);
}

void GroupCastNode::start_repl_round(GroupId group, bool handoff,
                                     std::uint32_t epoch) {
  auto& repl = state_of(group).repl;
  GC_REQUIRE(repl.member && repl_exchange_.has_value());
  repl.round_epoch = epoch;
  repl.round_is_handoff = handoff;
  repl.round_started = now();
  repl.round_acked.clear();
  if (handoff) {
    repl.promised = std::max(repl.promised, epoch);
    repl.promised_to = self_;  // our own proposal holds our promise
  }
  repl.round = repl_exchange_->begin(
      [this, group](std::size_t) {
        auto& repl = state_of(group).repl;
        for (const auto member : repl.members) {
          if (member == self_) continue;
          if (repl.round_is_handoff) {
            transport_->send(self_, member,
                             HandoffMsg{group, repl.round_epoch, self_,
                                        repl.origin});
          } else {
            transport_->send(self_, member,
                             LeaseMsg{group, repl.round_epoch, self_,
                                      repl.origin});
          }
        }
      },
      [this, group] {
        // Quorum unreachable.  A renewing leaseholder demotes itself to
        // caretaker: it keeps serving its (minority-side) subtree as tree
        // root but stops claiming the lease, so the majority side can
        // elect without a competing claim surviving the heal.  A takeover
        // candidate simply waits for its next patience window.
        auto& repl = state_of(group).repl;
        repl.round = ReliableExchange::kNoToken;
        if (!repl.round_is_handoff) repl.leaseholder = false;
      });
  maybe_commit_round(group);
}

void GroupCastNode::note_round_ack(GroupId group, overlay::PeerId from,
                                   std::uint32_t acked_epoch) {
  auto& repl = state_of(group).repl;
  if (repl.round == ReliableExchange::kNoToken) return;
  if (acked_epoch != repl.round_epoch) return;
  if (std::find(repl.members.begin(), repl.members.end(), from) ==
      repl.members.end()) {
    return;
  }
  if (std::find(repl.round_acked.begin(), repl.round_acked.end(), from) !=
      repl.round_acked.end()) {
    return;  // a retry broadcast re-collected this member
  }
  repl.round_acked.push_back(from);
  maybe_commit_round(group);
}

void GroupCastNode::maybe_commit_round(GroupId group) {
  auto& repl = state_of(group).repl;
  if (repl.round == ReliableExchange::kNoToken) return;
  const std::size_t majority = repl.members.size() / 2 + 1;
  if (repl.round_acked.size() + 1 < majority) return;  // +1: our own vote
  repl_exchange_->settle(repl.round);
  repl.round = ReliableExchange::kNoToken;
  if (repl.round_is_handoff) {
    commit_handoff(group);
    return;
  }
  trace::counters().incr(self_, trace::CounterId::kLeaseRenewals);
  trace::tracer().emit(now().as_micros(), trace::EventKind::kLeaseRenewed,
                       self_, trace::kNoNode, repl.round_epoch);
  repl.last_lease_seen = now();
}

void GroupCastNode::commit_handoff(GroupId group) {
  auto& state = state_of(group);
  auto& repl = state.repl;
  const auto previous = repl.leader;
  repl.epoch = repl.round_epoch;
  repl.promised = std::max(repl.promised, repl.epoch);
  repl.leader = self_;
  repl.leaseholder = true;
  repl.last_lease_seen = now();
  merge_lease_record(repl, LeaseRecord{repl.epoch, self_});
  trace::counters().incr(self_, trace::CounterId::kLeaseHandoffs);
  trace::histograms().record(
      trace::HistogramId::kHandoffUs,
      static_cast<std::uint64_t>((now() - repl.round_started).as_micros()));
  trace::tracer().emit(now().as_micros(), trace::EventKind::kLeaseHandoff,
                       self_, previous == self_ ? trace::kNoNode : previous,
                       repl.epoch);
  // The new leaseholder becomes the group's acting tree root: its side's
  // orphans re-ladder onto it via the (liveness-filtered) rendezvous rung.
  root_self(group);
  // Push the merged log right away so the quorum converges without
  // waiting for the anti-entropy sweep of the next renewal.
  for (const auto member : repl.members) {
    if (member == self_) continue;
    transport_->send(self_, member,
                     ReplicateMsg{group, repl.epoch, self_, repl.origin,
                                  repl.log});
  }
}

void GroupCastNode::merge_lease_record(ReplState& repl,
                                       const LeaseRecord& record) {
  if (record.epoch == 0 || record.leader == overlay::kNoPeer) return;
  const auto it = std::lower_bound(
      repl.log.begin(), repl.log.end(), record,
      [](const LeaseRecord& a, const LeaseRecord& b) {
        return a.epoch < b.epoch;
      });
  if (it != repl.log.end() && it->epoch == record.epoch) {
    if (it->leader != record.leader) {
      // Two leaders for one epoch cannot both have committed under
      // intersecting majorities; counting (instead of crashing) lets the
      // invariant checker pin the counter at zero.
      trace::counters().incr(self_, trace::CounterId::kEpochConflicts);
    }
    return;
  }
  repl.log.insert(it, record);
}

void GroupCastNode::adopt_epoch(GroupId group, std::uint32_t epoch,
                                overlay::PeerId leader) {
  auto& state = state_of(group);
  auto& repl = state.repl;
  if (epoch < repl.epoch) return;
  if (epoch == repl.epoch) {
    if (leader == repl.leader) {
      if (leader != self_) repl.last_lease_seen = now();
      return;
    }
    trace::counters().incr(self_, trace::CounterId::kEpochConflicts);
    return;
  }
  repl.epoch = epoch;
  repl.promised = std::max(repl.promised, epoch);
  repl.leader = leader;
  merge_lease_record(repl, LeaseRecord{epoch, leader});
  repl.last_lease_seen = now();
  if (leader == self_) return;
  repl.leaseholder = false;
  if (repl.round != ReliableExchange::kNoToken) {
    repl_exchange_->cancel(repl.round);
    repl.round = ReliableExchange::kNoToken;
  }
  // Heal reconciliation, tree half: a superseded acting root folds its
  // whole subtree back under the new leader by re-running the ladder
  // (its depth-0 guard keeps it from attaching below its own
  // descendants).
  if (state.on_tree && state.tree_parent == self_) {
    begin_recovery(group, overlay::kNoPeer);
  }
}

void GroupCastNode::maybe_push_log(GroupId group, overlay::PeerId to,
                                   std::uint32_t peer_head,
                                   std::uint32_t peer_size) {
  auto& repl = state_of(group).repl;
  if (!repl.leaseholder) return;
  const auto head = repl.log.empty() ? 0u : repl.log.back().epoch;
  // Push only to members provably *behind* us; a peer reporting a log we
  // do not dominate converges through its own leader-side push instead
  // (pushing at it would ping-pong forever).
  if (peer_head >= head && peer_size >= repl.log.size()) return;
  transport_->send(self_, to,
                   ReplicateMsg{group, repl.epoch, repl.leader, repl.origin,
                                repl.log});
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
    drop_edge_state(state, state.tree_parent);
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
  // Deferred joiners and retained children learn the new depth root-style.
  for (const auto child : state.pending_acks) {
    transport_->send(self_, child,
                     JoinAckMsg{group, state.depth, offered_backup(state)});
    if (options_.reliability.enabled) {
      drop_edge_state(state, child);
      reset_tx_edge(group, state, child);
    }
  }
  for (const auto child : state.children) {
    if (std::find(state.pending_acks.begin(), state.pending_acks.end(),
                  child) != state.pending_acks.end()) {
      continue;
    }
    transport_->send(
        self_, child,
        HeartbeatAckMsg{group, state.depth, offered_backup(state)});
  }
  state.pending_acks.clear();
  maybe_schedule_heartbeat(group);
}

void GroupCastNode::handle_lease(const Envelope& envelope,
                                 const LeaseMsg& msg) {
  if (!ensure_repl_member(msg.group, msg.rendezvous)) return;
  auto& repl = state_of(msg.group).repl;
  if (msg.epoch < repl.epoch) {
    // A stale leader surfacing across a healed partition: push our log so
    // it adopts the newer epoch and steps down.
    transport_->send(self_, envelope.from,
                     ReplicateMsg{msg.group, repl.epoch, repl.leader,
                                  repl.origin, repl.log});
    return;
  }
  adopt_epoch(msg.group, msg.epoch, msg.leader);
  if (repl.epoch == msg.epoch && repl.leader == msg.leader) {
    const auto head = repl.log.empty() ? 0u : repl.log.back().epoch;
    transport_->send(
        self_, envelope.from,
        LeaseAckMsg{msg.group, msg.epoch, head,
                    static_cast<std::uint32_t>(repl.log.size())});
  }
}

void GroupCastNode::handle_lease_ack(const Envelope& envelope,
                                     const LeaseAckMsg& msg) {
  if (!options_.replication.enabled) return;
  auto& repl = state_of(msg.group).repl;
  if (!repl.member) return;
  note_round_ack(msg.group, envelope.from, msg.epoch);
  maybe_push_log(msg.group, envelope.from, msg.head_epoch, msg.log_size);
}

void GroupCastNode::handle_replicate(const Envelope& envelope,
                                     const ReplicateMsg& msg) {
  if (!ensure_repl_member(msg.group, msg.rendezvous)) return;
  auto& repl = state_of(msg.group).repl;
  if (repl.round != ReliableExchange::kNoToken && repl.round_is_handoff &&
      msg.epoch == repl.round_epoch && msg.leader == self_) {
    // A grant for our open takeover proposal, Paxos prepare-style: it
    // carries the granter's whole log, so by commit time our log holds
    // every record any majority ever committed — no epoch can be lost to
    // the heal.
    for (const auto& record : msg.records) merge_lease_record(repl, record);
    note_round_ack(msg.group, envelope.from, msg.epoch);
    return;
  }
  // Log push from a (possibly newer) leader: union-merge, adopt, report
  // back our log summary so the leader can re-push if we stayed behind.
  // Adoption takes the highest *record* in the push, never the header —
  // a grant's header names the proposed (uncommitted) epoch, and a
  // candidate whose round already closed must not mistake a late grant
  // for a commit of its own failed proposal.
  LeaseRecord newest{0, overlay::kNoPeer};
  for (const auto& record : msg.records) {
    merge_lease_record(repl, record);
    if (record.epoch > newest.epoch) newest = record;
  }
  if (newest.epoch > 0) adopt_epoch(msg.group, newest.epoch, newest.leader);
  const auto head = repl.log.empty() ? 0u : repl.log.back().epoch;
  transport_->send(
      self_, envelope.from,
      ReplicateAckMsg{msg.group, msg.epoch, head,
                      static_cast<std::uint32_t>(repl.log.size())});
}

void GroupCastNode::handle_replicate_ack(const Envelope& envelope,
                                         const ReplicateAckMsg& msg) {
  if (!options_.replication.enabled) return;
  auto& repl = state_of(msg.group).repl;
  if (!repl.member) return;
  note_round_ack(msg.group, envelope.from, msg.epoch);
  maybe_push_log(msg.group, envelope.from, msg.head_epoch, msg.log_size);
}

void GroupCastNode::handle_handoff(const Envelope& envelope,
                                   const HandoffMsg& msg) {
  if (!ensure_repl_member(msg.group, msg.rendezvous)) return;
  if (msg.candidate != envelope.from) return;  // garbled proposal
  auto& repl = state_of(msg.group).repl;
  const bool fresh = msg.epoch > repl.promised && msg.epoch > repl.epoch;
  const bool retry = msg.epoch == repl.promised && msg.epoch > repl.epoch &&
                     repl.promised_to == msg.candidate;
  if (fresh || retry) {
    repl.promised = msg.epoch;
    repl.promised_to = msg.candidate;
    // A higher proposal supersedes our own in-flight one (majorities
    // would overlap; yielding here is what makes the race converge).
    if (repl.round != ReliableExchange::kNoToken && repl.round_is_handoff &&
        repl.round_epoch < msg.epoch) {
      repl_exchange_->cancel(repl.round);
      repl.round = ReliableExchange::kNoToken;
    }
    transport_->send(self_, envelope.from,
                     ReplicateMsg{msg.group, msg.epoch, msg.candidate,
                                  repl.origin, repl.log});
    return;
  }
  // Reject by pushing our committed view: a candidate proposing below an
  // epoch we promised or committed catches up and re-proposes higher.
  transport_->send(self_, envelope.from,
                   ReplicateMsg{msg.group, repl.epoch, repl.leader,
                                repl.origin, repl.log});
}

}  // namespace groupcast::core
