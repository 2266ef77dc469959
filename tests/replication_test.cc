// Tests for replication: the rung-0 backup parent (the Section 6
// replicated failover) on a live node deployment, the deterministic
// replica set every node derives for a group, and the LeaseReplica quorum
// protocol in isolation, driven through a fake host.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/invariants.h"
#include "core/lease_replica.h"
#include "core/node.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "trace/counters.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

// ------------------------------------- backup-parent failover, live

// The node runtime's form of the paper's replicated failover: every parent
// offers its own parent on Join/Heartbeat acks, and an orphan tries that
// grandparent (rung 0) before the advert-parent / ripple / rendezvous
// rungs.  Each deployment joins a GroupCast overlay, grows one group with
// a subscriber on every fifth peer, and lets heartbeats spread the offers.
constexpr GroupId kTreeGroup = 1;
constexpr std::size_t kTreePeers = 300;
constexpr PeerId kTreeRoot = 0;

struct LiveTree {
  testing::SmallWorld world;
  overlay::OverlayGraph graph;
  sim::Simulator simulator;
  Transport transport;
  trace::CounterRegistry counters;
  trace::ScopedCounterRegistry counter_scope;
  std::vector<std::unique_ptr<GroupCastNode>> nodes;
  std::vector<PeerId> subscribers;

  explicit LiveTree(std::uint64_t seed, bool replication = true)
      : world(kTreePeers, seed),
        graph(kTreePeers),
        transport(simulator, *world.population, TransportOptions{},
                  world.rng),
        counter_scope(counters) {
    counters.enable(kTreePeers);
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    for (PeerId p = 0; p < kTreePeers; ++p) bootstrap.join(p);
    NodeOptions options;
    options.heartbeat_interval = sim::SimTime::millis(500);
    options.replication.enabled = replication;
    for (PeerId p = 0; p < kTreePeers; ++p) {
      nodes.push_back(std::make_unique<GroupCastNode>(
          p, transport, graph, options, world.rng));
      nodes.back()->start();
    }
    nodes[kTreeRoot]->create_group(kTreeGroup);
    settle();
    for (PeerId p = 1; p < kTreePeers; p += 5) {
      subscribers.push_back(p);
      nodes[p]->subscribe(kTreeGroup);
    }
    settle();
  }

  /// Long enough at zero loss for heartbeats to declare a dead parent and
  /// for every orphan to walk its ladder.
  void settle() {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(15.0));
  }

  const GroupCastNode& node(PeerId p) const { return *nodes[p]; }
  bool on_tree(PeerId p) const {
    return nodes[p]->running() && nodes[p]->on_tree(kTreeGroup);
  }
  PeerId parent(PeerId p) const { return nodes[p]->tree_parent(kTreeGroup); }
  std::vector<PeerId> children(PeerId p) const {
    return nodes[p]->tree_children(kTreeGroup);
  }
  PeerId backup(PeerId p) const { return nodes[p]->backup_parent(kTreeGroup); }

  /// The live non-root relay with the most children (lowest id on ties).
  PeerId busiest_relay() const {
    PeerId victim = overlay::kNoPeer;
    std::size_t most = 0;
    for (PeerId p = 0; p < kTreePeers; ++p) {
      if (p == kTreeRoot || !on_tree(p)) continue;
      if (children(p).size() > most) {
        most = children(p).size();
        victim = p;
      }
    }
    return victim;
  }

  InvariantReport check() const {
    std::vector<const GroupCastNode*> views;
    for (const auto& n : nodes) views.push_back(n.get());
    return check_tree_invariants(tree_view(views, kTreeGroup), kTreeRoot,
                                 subscribers);
  }
};

std::string violations(const InvariantReport& report) {
  std::string out;
  for (const auto& v : report.violations) out += v + "\n";
  return out;
}

TEST(Replication, CoverageIsHighOnGroupCastOverlays) {
  LiveTree t(23);
  // Every tree node below depth 1 has a grandparent to be offered.
  std::size_t eligible = 0;
  std::size_t covered = 0;
  for (PeerId p = 0; p < kTreePeers; ++p) {
    if (p == kTreeRoot || !t.on_tree(p) || t.parent(p) == kTreeRoot) continue;
    ++eligible;
    if (t.backup(p) != overlay::kNoPeer) ++covered;
  }
  ASSERT_GT(eligible, 10u);
  EXPECT_EQ(covered, eligible);
  // Without replication nobody is offered a backup.
  LiveTree plain(23, /*replication=*/false);
  for (PeerId p = 0; p < kTreePeers; ++p) {
    EXPECT_EQ(plain.backup(p), overlay::kNoPeer) << "peer " << p;
  }
}

TEST(Replication, BackupDiffersFromPrimaryAndIsNeighbour) {
  LiveTree t(29);
  std::size_t checked = 0;
  for (PeerId p = 0; p < kTreePeers; ++p) {
    if (p == kTreeRoot || !t.on_tree(p)) continue;
    const auto backup = t.backup(p);
    if (backup == overlay::kNoPeer) continue;
    const auto primary = t.parent(p);
    EXPECT_NE(backup, primary) << "peer " << p;
    EXPECT_NE(backup, p);
    // The backup is the primary's own tree neighbour one hop up, so it
    // sits outside the orphan's subtree.
    EXPECT_EQ(backup, t.parent(primary)) << "peer " << p;
    const auto kids = t.children(backup);
    EXPECT_NE(std::find(kids.begin(), kids.end(), primary), kids.end());
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(Replication, FailoverKeepsTreeConsistent) {
  LiveTree t(31);
  const PeerId victim = t.busiest_relay();
  ASSERT_NE(victim, overlay::kNoPeer);
  const auto orphans = t.children(victim);
  ASSERT_FALSE(orphans.empty());
  t.nodes[victim]->crash();
  t.settle();
  const auto report = t.check();
  EXPECT_TRUE(report.ok()) << violations(report);
  EXPECT_EQ(report.stranded_subscribers, 0u);
  for (const auto orphan : orphans) {
    ASSERT_TRUE(t.on_tree(orphan)) << "orphan " << orphan;
    EXPECT_NE(t.parent(orphan), victim);
  }
  EXPECT_GT(t.counters.total(trace::CounterId::kBackupAttaches), 0u);
}

TEST(Replication, SimulateMatchesApply) {
  // The backup an orphan holds before its parent fails predicts exactly
  // where failover re-attaches it.
  LiveTree t(37);
  const PeerId victim = t.busiest_relay();
  ASSERT_NE(victim, overlay::kNoPeer);
  const PeerId grandparent = t.parent(victim);
  std::map<PeerId, PeerId> predicted;
  for (const auto orphan : t.children(victim)) {
    predicted[orphan] = t.backup(orphan);
    EXPECT_EQ(predicted[orphan], grandparent) << "orphan " << orphan;
  }
  ASSERT_FALSE(predicted.empty());
  t.nodes[victim]->crash();
  t.settle();
  for (const auto& [orphan, backup] : predicted) {
    ASSERT_TRUE(t.on_tree(orphan)) << "orphan " << orphan;
    EXPECT_EQ(t.parent(orphan), backup) << "orphan " << orphan;
    EXPECT_EQ(t.counters.of(orphan, trace::CounterId::kBackupAttaches), 1u);
  }
  EXPECT_EQ(t.counters.total(trace::CounterId::kBackupAttaches),
            predicted.size());
}

TEST(Replication, RecoveryBeatsUnreplicatedRepairOnMessages) {
  // Rung 0 costs one Join/JoinAck per orphan; without it an orphan whose
  // advert parent was the failed relay falls through to ripple searches.
  // Compare the subscription messages each deployment spends re-attaching
  // the orphans of its busiest relay.
  const auto cost_per_orphan = [](bool replication) {
    LiveTree t(41, replication);
    const PeerId victim = t.busiest_relay();
    EXPECT_NE(victim, overlay::kNoPeer);
    const auto orphans = t.children(victim);
    EXPECT_FALSE(orphans.empty());
    const auto before = t.transport.stats().subscription_messages();
    t.nodes[victim]->crash();
    t.settle();
    const auto report = t.check();
    EXPECT_TRUE(report.ok()) << violations(report);
    for (const auto orphan : orphans) {
      EXPECT_TRUE(t.on_tree(orphan)) << "orphan " << orphan;
    }
    return static_cast<double>(t.transport.stats().subscription_messages() -
                               before) /
           static_cast<double>(std::max<std::size_t>(1, orphans.size()));
  };
  const double replicated = cost_per_orphan(true);
  const double repaired = cost_per_orphan(false);
  EXPECT_DOUBLE_EQ(replicated, 2.0);
  EXPECT_LT(replicated, repaired);
}

TEST(Replication, RejectsRootFailure) {
  // Rung 0 never covers the rendezvous point: the root has no parent to
  // offer, so its children hold no backup, and a crashed root is taken
  // over by a lease replica instead.
  LiveTree t(43);
  EXPECT_EQ(t.backup(kTreeRoot), overlay::kNoPeer);
  const auto orphans = t.children(kTreeRoot);
  ASSERT_FALSE(orphans.empty());
  for (const auto orphan : orphans) {
    EXPECT_EQ(t.backup(orphan), overlay::kNoPeer) << "orphan " << orphan;
  }
  t.nodes[kTreeRoot]->crash();
  t.settle();
  for (const auto orphan : orphans) {
    EXPECT_EQ(t.counters.of(orphan, trace::CounterId::kBackupAttaches), 0u);
  }
  std::size_t leaseholders = 0;
  for (PeerId p = 0; p < kTreePeers; ++p) {
    if (t.nodes[p]->running() && t.nodes[p]->is_leaseholder(kTreeGroup)) {
      ++leaseholders;
      EXPECT_NE(p, kTreeRoot);
    }
  }
  EXPECT_EQ(leaseholders, 1u);
}

TEST(Replication, CascadingFailuresKeepTreeConsistent) {
  // Fail relays one after another, always picking the busiest surviving
  // relay — including backups that just absorbed an orphaned subtree.
  // After every wave the survivors' views must compose into a consistent
  // tree that reaches every live subscriber and names no failed peer.
  LiveTree t(47);
  std::vector<PeerId> failed;
  for (int wave = 0; wave < 5; ++wave) {
    const PeerId victim = t.busiest_relay();
    if (victim == overlay::kNoPeer) break;
    t.nodes[victim]->crash();
    failed.push_back(victim);
    t.settle();
    const auto report = t.check();
    ASSERT_TRUE(report.ok()) << "after wave " << wave << "\n"
                             << violations(report);
    EXPECT_EQ(report.stranded_subscribers, 0u) << "after wave " << wave;
  }
  EXPECT_EQ(failed.size(), 5u);
  EXPECT_GT(t.counters.total(trace::CounterId::kBackupAttaches), 0u);
}

// ---------------------------------------------------- replica-set hashing

TEST(Replication, ReplicaSetIsDeterministicAndDistinct) {
  for (const std::uint32_t group : {1u, 7u, 999u}) {
    for (const std::size_t population :
         {std::size_t{16}, std::size_t{300}, std::size_t{4096}}) {
      const PeerId primary = group % population;
      const auto a = rendezvous_replicas(group, primary, population, 3);
      const auto b = rendezvous_replicas(group, primary, population, 3);
      EXPECT_EQ(a, b);  // same inputs, same set — on every node
      ASSERT_EQ(a.size(), 3u);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i], primary);
        EXPECT_LT(a[i], population);
        for (std::size_t j = i + 1; j < a.size(); ++j) {
          EXPECT_NE(a[i], a[j]);
        }
      }
    }
  }
}

TEST(Replication, ReplicaSetVariesByGroup) {
  // Different groups must not pile their replicas onto the same peers.
  const auto a = rendezvous_replicas(1, 0, 1000, 3);
  const auto b = rendezvous_replicas(2, 0, 1000, 3);
  EXPECT_NE(a, b);
}

TEST(Replication, ReplicaSetSkipsDepartedPeersUnderLivenessFilter) {
  const auto unfiltered = rendezvous_replicas(7, 0, 300, 3);
  const PeerId dead = unfiltered.front();
  const auto filtered = rendezvous_replicas(
      7, 0, 300, 3, [dead](PeerId p) { return p != dead; });
  ASSERT_EQ(filtered.size(), 3u);
  for (const auto p : filtered) EXPECT_NE(p, dead);
  // Survivors keep their agreed order; only the departed peer is
  // replaced (by the next peer along the same probe sequence).
  EXPECT_EQ(filtered[0], unfiltered[1]);
  EXPECT_EQ(filtered[1], unfiltered[2]);
}

TEST(Replication, ReplicaSetValidatesCount) {
  EXPECT_THROW(rendezvous_replicas(7, 0, 4, 4), PreconditionError);
  EXPECT_THROW(rendezvous_replicas(7, 0, 0, 0), PreconditionError);
  EXPECT_TRUE(rendezvous_replicas(7, 0, 1, 0).empty());
}

// ------------------------------------------------ LeaseReplica in isolation

constexpr GroupId kGroup = 3;
constexpr PeerId kRendezvous = 0;
constexpr std::size_t kPeers = 8;

/// The fake host: one LeaseReplica at the rendezvous point, replica
/// state in a map, and every message it sends captured at its peers.
class LeaseRig final : public LeaseReplica::Host {
 public:
  LeaseRig()
      : world_(kPeers, 41),
        transport_(simulator_, *world_.population, TransportOptions{},
                   world_.rng),
        options_(enabled()),
        replica_(*this, kRendezvous, transport_, options_, world_.rng) {
    for (PeerId p = 1; p < kPeers; ++p) {
      transport_.register_node(
          p, [this](const Envelope& e) { sent_.push_back(e); });
    }
    members_ = rendezvous_replicas(kGroup, kRendezvous, kPeers,
                                   options_.replicas);
    trace::counters().enable(kPeers);
  }
  ~LeaseRig() {
    trace::counters().disable();
    trace::counters().reset();
  }

  LeaseReplica& replica() { return replica_; }
  ReplState& state() { return states_[kGroup]; }
  /// The two replicas beside the rendezvous point.
  PeerId member(std::size_t i) const { return members_.at(i); }

  /// Every ReplicateMsg the replica sent to `to` so far.
  std::vector<ReplicateMsg> pushes_to(PeerId to) {
    simulator_.run_until(simulator_.now() + sim::SimTime::millis(300));
    std::vector<ReplicateMsg> out;
    for (const auto& e : sent_) {
      if (e.to != to) continue;
      if (const auto* msg = std::get_if<ReplicateMsg>(&e.body)) {
        out.push_back(*msg);
      }
    }
    return out;
  }
  std::size_t sent_count() const { return sent_.size(); }

  ReplState& replica(GroupId group) override { return states_[group]; }
  void root_self(GroupId) override {}
  void superseded(GroupId) override { ++superseded_; }
  std::size_t superseded_count() const { return superseded_; }

 private:
  static ReplicationOptions enabled() {
    ReplicationOptions options;
    options.enabled = true;
    return options;
  }

  testing::SmallWorld world_;
  sim::Simulator simulator_;
  Transport transport_;
  ReplicationOptions options_;
  LeaseReplica replica_;
  std::map<GroupId, ReplState> states_;
  std::vector<PeerId> members_;
  std::vector<Envelope> sent_;
  std::size_t superseded_ = 0;
};

TEST(LeaseReplicaSeam, HandoffAtOrBelowThePromiseGetsTheCommittedView) {
  LeaseRig rig;
  ASSERT_TRUE(rig.replica().ensure_member(kGroup, rig.state(), kRendezvous));
  const PeerId first = rig.member(0);
  const PeerId rival = rig.member(1);

  // A fresh proposal for epoch 2 is granted: the echo names the candidate.
  rig.replica().handle(rig.state(), first,
                       HandoffMsg{kGroup, 2, first, kRendezvous});
  EXPECT_EQ(rig.state().promised, 2u);
  const auto grant = rig.pushes_to(first);
  ASSERT_EQ(grant.size(), 1u);
  EXPECT_EQ(grant[0].epoch, 2u);
  EXPECT_EQ(grant[0].leader, first);

  // A rival at the promised epoch, and a stale one at the committed epoch,
  // are both answered with the committed view (epoch 1 under the RP).
  rig.replica().handle(rig.state(), rival,
                       HandoffMsg{kGroup, 2, rival, kRendezvous});
  rig.replica().handle(rig.state(), rival,
                       HandoffMsg{kGroup, 1, rival, kRendezvous});
  const auto rejections = rig.pushes_to(rival);
  ASSERT_EQ(rejections.size(), 2u);
  for (const auto& push : rejections) {
    EXPECT_EQ(push.epoch, 1u);
    EXPECT_EQ(push.leader, kRendezvous);
    EXPECT_EQ(push.records, (std::vector<LeaseRecord>{{1, kRendezvous}}));
  }
  EXPECT_EQ(rig.state().promised_to, first);
}

TEST(LeaseReplicaSeam, ConflictingLeaderForOneEpochCountsEpochConflicts) {
  LeaseRig rig;
  ASSERT_TRUE(rig.replica().ensure_member(kGroup, rig.state(), kRendezvous));
  const PeerId winner = rig.member(0);
  const PeerId rival = rig.member(1);
  const std::vector<LeaseRecord> committed{{1, kRendezvous}, {2, winner}};

  rig.replica().handle(rig.state(), winner,
                       ReplicateMsg{kGroup, 2, winner, kRendezvous,
                                    committed});
  EXPECT_EQ(rig.state().leader, winner);
  EXPECT_EQ(rig.superseded_count(), 1u);
  const auto conflicts = [] {
    return trace::counters().total(trace::CounterId::kEpochConflicts);
  };
  EXPECT_EQ(conflicts(), 0u);

  // A lease claim by another leader for the same epoch is counted, not
  // adopted, and not acked.
  const auto before = rig.sent_count();
  rig.replica().handle(rig.state(), rival,
                       LeaseMsg{kGroup, 2, rival, kRendezvous});
  EXPECT_EQ(conflicts(), 1u);
  EXPECT_EQ(rig.state().leader, winner);
  EXPECT_EQ(rig.sent_count(), before);

  // A pushed log naming the rival for epoch 2 keeps the incumbent record.
  rig.replica().handle(rig.state(), rival,
                       ReplicateMsg{kGroup, 2, rival, kRendezvous,
                                    {{2, rival}}});
  EXPECT_GT(conflicts(), 1u);
  EXPECT_EQ(rig.state().log, committed);
  EXPECT_EQ(rig.state().leader, winner);
}

}  // namespace
}  // namespace groupcast::core
