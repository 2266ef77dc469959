#include "core/lease_replica.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

std::vector<overlay::PeerId> rendezvous_replicas(std::uint32_t group,
                                                 overlay::PeerId primary,
                                                 std::size_t population,
                                                 std::size_t count,
                                                 const LivenessFilter& alive) {
  GC_REQUIRE(population > 0);
  GC_REQUIRE(count < population);
  std::vector<overlay::PeerId> replicas;
  if (population <= 1 || count == 0) return replicas;
  // splitmix64 over (group, probe index) — stateless, so every node
  // derives the identical sequence.  Dead candidates are skipped in probe
  // order, so two nodes with the same liveness view agree on the result.
  // The probe budget bounds the walk when fewer than `count` live peers
  // exist (every peer is expected within ~population·ln(population)
  // probes; 16x that margin makes a short result a certainty statement,
  // not a sampling accident).
  std::uint64_t state =
      0x9E3779B97F4A7C15ULL ^ (static_cast<std::uint64_t>(group) << 1);
  std::size_t probes_left = 16 * population + 64;
  while (replicas.size() < count && probes_left-- > 0) {
    const auto candidate = static_cast<overlay::PeerId>(
        util::splitmix64(state) % population);
    if (candidate == primary) continue;
    if (alive && !alive(candidate)) continue;
    if (std::find(replicas.begin(), replicas.end(), candidate) !=
        replicas.end()) {
      continue;
    }
    replicas.push_back(candidate);
  }
  return replicas;
}

namespace {
RetryPolicy lease_retry(const ReplicationOptions& options) {
  GC_REQUIRE_MSG(options.replicas >= 1, "replication.replicas must be >= 1");
  GC_REQUIRE_MSG(options.lease_interval > sim::SimTime::zero(),
                 "replication.lease_interval must be positive");
  RetryPolicy policy;
  policy.base_timeout = options.lease_interval;
  policy.max_timeout = options.lease_interval * kLeaseIntervals;
  return policy;
}
}  // namespace

LeaseReplica::LeaseReplica(Host& host, overlay::PeerId self,
                           Transport& transport,
                           const ReplicationOptions& options, util::Rng& rng)
    : host_(&host),
      transport_(&transport),
      options_(&options),
      self_(self),
      exchange_(transport.simulator_for(self), self, lease_retry(options),
                rng) {}

sim::SimTime LeaseReplica::now() const {
  return transport_->simulator_for(self_).now();
}

std::size_t LeaseReplica::memory_bytes(const ReplState& repl) {
  return repl.members.capacity() * sizeof(overlay::PeerId) +
         repl.round_acked.capacity() * sizeof(overlay::PeerId) +
         repl.log.capacity() * sizeof(LeaseRecord);
}

std::uint32_t LeaseReplica::log_head(const ReplState& repl) {
  return repl.log.empty() ? 0u : repl.log.back().epoch;
}

bool LeaseReplica::ensure_member(GroupId group, ReplState& repl,
                                 overlay::PeerId rendezvous) {
  if (rendezvous == overlay::kNoPeer) return false;
  if (repl.member) return repl.origin == rendezvous;
  const auto population = transport_->population().size();
  const std::size_t count =
      std::min(options_->replicas, population > 0 ? population - 1 : 0);
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
  schedule_tick(group, repl);
  return true;
}

void LeaseReplica::create(GroupId group, ReplState& repl) {
  if (!ensure_member(group, repl, self_)) return;
  repl.leaseholder = true;
  start_round(group, repl, /*handoff=*/false, repl.epoch);
}

void LeaseReplica::stop() {
  exchange_.cancel_all();
  // Every member group waits in the tick between rounds, so this reaches
  // each group that can hold an open round.
  tick_.cancel(transport_->simulator_for(self_), [this](GroupId group) {
    auto& repl = host_->replica(group);
    repl.round = ReliableExchange::kNoToken;
    repl.tick_scheduled = false;
  });
}

// ---------------------------------------------------------- lease tick

void LeaseReplica::schedule_tick(GroupId group, ReplState& repl) {
  if (!repl.member || repl.tick_scheduled) return;
  repl.tick_scheduled = true;
  // The cadence is a fixed lease_interval with no jitter, so renewal
  // traffic is a pure function of the scenario, not of RNG interleaving.
  tick_.enrol(group, transport_->simulator_for(self_),
              options_->lease_interval, &tick_thunk, this);
}

void LeaseReplica::tick_thunk(void* context, std::uint64_t) {
  auto* replica = static_cast<LeaseReplica*>(context);
  replica->tick_.fire(replica->self_,
                      [replica](GroupId group) { replica->tick(group); });
}

void LeaseReplica::tick(GroupId group) {
  auto& repl = host_->replica(group);
  repl.tick_scheduled = false;
  if (!repl.member) return;
  if (repl.leaseholder) {
    if (repl.round == ReliableExchange::kNoToken) {
      start_round(group, repl, /*handoff=*/false, repl.epoch);
    }
  } else if (repl.round == ReliableExchange::kNoToken) {
    // Takeover: member rank staggers the patience window, so the lowest
    // surviving rank proposes first and concurrent proposals are the
    // partition-race exception, not the norm.
    const auto rank = static_cast<std::int64_t>(
        std::find(repl.members.begin(), repl.members.end(), self_) -
        repl.members.begin());
    const auto patience =
        options_->lease_interval * (kLeaseIntervals + rank);
    if (now() - repl.last_lease_seen > patience) {
      start_round(group, repl, /*handoff=*/true,
                  std::max(repl.epoch, repl.promised) + 1);
    }
  }
  schedule_tick(group, repl);
}

// --------------------------------------------------------- quorum rounds

void LeaseReplica::start_round(GroupId group, ReplState& repl, bool handoff,
                               std::uint32_t epoch) {
  GC_REQUIRE(repl.member);
  repl.round_epoch = epoch;
  repl.round_is_handoff = handoff;
  repl.round_started = now();
  repl.round_acked.clear();
  if (handoff) {
    repl.promised = std::max(repl.promised, epoch);
    repl.promised_to = self_;  // our own proposal holds our promise
  }
  repl.round = exchange_.begin(
      [this, group](std::size_t) {
        const auto& state = host_->replica(group);
        for (const auto member : state.members) {
          if (member == self_) continue;
          if (state.round_is_handoff) {
            transport_->send(self_, member,
                             HandoffMsg{group, state.round_epoch, self_,
                                        state.origin});
          } else {
            transport_->send(self_, member,
                             LeaseMsg{group, state.round_epoch, self_,
                                      state.origin});
          }
        }
      },
      [this, group] {
        // Quorum unreachable.  A renewing leaseholder demotes itself to
        // caretaker: it keeps serving its (minority-side) subtree as tree
        // root but stops claiming the lease, so the majority side can
        // elect without a competing claim surviving the heal.  A takeover
        // candidate simply waits for its next patience window.
        auto& state = host_->replica(group);
        state.round = ReliableExchange::kNoToken;
        if (!state.round_is_handoff) state.leaseholder = false;
      });
  maybe_commit(group, repl);
}

void LeaseReplica::note_ack(GroupId group, ReplState& repl,
                            overlay::PeerId from, std::uint32_t acked_epoch) {
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
  maybe_commit(group, repl);
}

void LeaseReplica::maybe_commit(GroupId group, ReplState& repl) {
  if (repl.round == ReliableExchange::kNoToken) return;
  const std::size_t majority = repl.members.size() / 2 + 1;
  if (repl.round_acked.size() + 1 < majority) return;  // +1: our own vote
  exchange_.settle(repl.round);
  repl.round = ReliableExchange::kNoToken;
  if (repl.round_is_handoff) {
    commit_handoff(group, repl);
    return;
  }
  trace::counters().incr(self_, trace::CounterId::kLeaseRenewals);
  trace::tracer().emit(now().as_micros(), trace::EventKind::kLeaseRenewed,
                       self_, trace::kNoNode, repl.round_epoch);
  repl.last_lease_seen = now();
}

void LeaseReplica::commit_handoff(GroupId group, ReplState& repl) {
  const auto previous = repl.leader;
  repl.epoch = repl.round_epoch;
  repl.promised = std::max(repl.promised, repl.epoch);
  repl.leader = self_;
  repl.leaseholder = true;
  repl.last_lease_seen = now();
  merge(repl, LeaseRecord{repl.epoch, self_});
  trace::counters().incr(self_, trace::CounterId::kLeaseHandoffs);
  trace::histograms().record(
      trace::HistogramId::kHandoffUs,
      static_cast<std::uint64_t>((now() - repl.round_started).as_micros()));
  trace::tracer().emit(now().as_micros(), trace::EventKind::kLeaseHandoff,
                       self_, previous == self_ ? trace::kNoNode : previous,
                       repl.epoch);
  // The new leaseholder becomes the group's acting tree root: its side's
  // orphans re-ladder onto it via the (liveness-filtered) rendezvous rung.
  host_->root_self(group);
  // Push the merged log right away so the quorum converges without
  // waiting for the anti-entropy sweep of the next renewal.
  for (const auto member : repl.members) {
    if (member == self_) continue;
    transport_->send(self_, member,
                     ReplicateMsg{group, repl.epoch, self_, repl.origin,
                                  repl.log});
  }
}

// ------------------------------------------------------------ epoch log

void LeaseReplica::merge(ReplState& repl, const LeaseRecord& record) {
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

void LeaseReplica::adopt(GroupId group, ReplState& repl, std::uint32_t epoch,
                         overlay::PeerId leader) {
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
  merge(repl, LeaseRecord{epoch, leader});
  repl.last_lease_seen = now();
  if (leader == self_) return;
  repl.leaseholder = false;
  if (repl.round != ReliableExchange::kNoToken) {
    exchange_.cancel(repl.round);
    repl.round = ReliableExchange::kNoToken;
  }
  // Heal reconciliation, tree half: a superseded acting root folds its
  // whole subtree back under the new leader.
  host_->superseded(group);
}

void LeaseReplica::maybe_push_log(GroupId group, const ReplState& repl,
                                  overlay::PeerId to,
                                  std::uint32_t peer_head,
                                  std::uint32_t peer_size) {
  if (!repl.leaseholder) return;
  // Push only to members provably *behind* us; a peer reporting a log we
  // do not dominate converges through its own leader-side push instead
  // (pushing at it would ping-pong forever).
  if (peer_head >= log_head(repl) && peer_size >= repl.log.size()) return;
  transport_->send(self_, to,
                   ReplicateMsg{group, repl.epoch, repl.leader, repl.origin,
                                repl.log});
}

// -------------------------------------------------------------- handlers

void LeaseReplica::handle(ReplState& repl, overlay::PeerId from,
                          const LeaseMsg& msg) {
  if (!ensure_member(msg.group, repl, msg.rendezvous)) return;
  if (msg.epoch < repl.epoch) {
    // A stale leader surfacing across a healed partition: push our log so
    // it adopts the newer epoch and steps down.
    transport_->send(self_, from,
                     ReplicateMsg{msg.group, repl.epoch, repl.leader,
                                  repl.origin, repl.log});
    return;
  }
  adopt(msg.group, repl, msg.epoch, msg.leader);
  if (repl.epoch == msg.epoch && repl.leader == msg.leader) {
    transport_->send(
        self_, from,
        LeaseAckMsg{msg.group, msg.epoch, log_head(repl),
                    static_cast<std::uint32_t>(repl.log.size())});
  }
}

void LeaseReplica::handle(ReplState& repl, overlay::PeerId from,
                          const LeaseAckMsg& msg) {
  if (!repl.member) return;
  note_ack(msg.group, repl, from, msg.epoch);
  maybe_push_log(msg.group, repl, from, msg.head_epoch, msg.log_size);
}

void LeaseReplica::handle(ReplState& repl, overlay::PeerId from,
                          const ReplicateMsg& msg) {
  if (!ensure_member(msg.group, repl, msg.rendezvous)) return;
  if (repl.round != ReliableExchange::kNoToken && repl.round_is_handoff &&
      msg.epoch == repl.round_epoch && msg.leader == self_) {
    // A grant for our open takeover proposal, Paxos prepare-style: it
    // carries the granter's whole log, so by commit time our log holds
    // every record any majority ever committed — no epoch can be lost to
    // the heal.
    for (const auto& record : msg.records) merge(repl, record);
    note_ack(msg.group, repl, from, msg.epoch);
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
    merge(repl, record);
    if (record.epoch > newest.epoch) newest = record;
  }
  if (newest.epoch > 0) adopt(msg.group, repl, newest.epoch, newest.leader);
  transport_->send(
      self_, from,
      ReplicateAckMsg{msg.group, msg.epoch, log_head(repl),
                      static_cast<std::uint32_t>(repl.log.size())});
}

void LeaseReplica::handle(ReplState& repl, overlay::PeerId from,
                          const ReplicateAckMsg& msg) {
  if (!repl.member) return;
  note_ack(msg.group, repl, from, msg.epoch);
  maybe_push_log(msg.group, repl, from, msg.head_epoch, msg.log_size);
}

void LeaseReplica::handle(ReplState& repl, overlay::PeerId from,
                          const HandoffMsg& msg) {
  if (!ensure_member(msg.group, repl, msg.rendezvous)) return;
  if (msg.candidate != from) return;  // garbled proposal
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
      exchange_.cancel(repl.round);
      repl.round = ReliableExchange::kNoToken;
    }
    transport_->send(self_, from,
                     ReplicateMsg{msg.group, msg.epoch, msg.candidate,
                                  repl.origin, repl.log});
    return;
  }
  // Reject by pushing our committed view: a candidate proposing below an
  // epoch we promised or committed catches up and re-proposes higher.
  transport_->send(self_, from,
                   ReplicateMsg{msg.group, repl.epoch, repl.leader, repl.origin,
                                repl.log});
}

}  // namespace groupcast::core
