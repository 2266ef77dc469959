#include "metrics/recovery.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/fault_injection.h"
#include "core/invariants.h"
#include "core/lease_replica.h"
#include "core/middleware.h"
#include "core/node.h"
#include "metrics/harness_common.h"
#include "sim/fault_plan.h"
#include "trace/histogram.h"

namespace groupcast::metrics {

namespace {

using overlay::PeerId;
using Nodes = std::vector<std::unique_ptr<core::GroupCastNode>>;

/// Adds a check's violations to the result's count and keeps the first
/// kViolationSamples descriptions.
void count_violations(ScenarioResult& result,
                      const std::vector<std::string>& violations) {
  result.invariant_violations += static_cast<double>(violations.size());
  for (const auto& violation : violations) {
    if (result.violation_samples.size() == kViolationSamples) break;
    result.violation_samples.push_back(violation);
  }
}

constexpr core::GroupId kGroup = 1;
constexpr std::span<const core::GroupId> kGroups{&kGroup, 1};

/// A slow peer acks this many times less often than the others.
constexpr std::size_t kSlowAckFactor = 10;
/// Share of the survivors isolated with the rendezvous point on the
/// minority side of the partition phase, and the payloads each side
/// publishes inside the window.
constexpr double kPartitionFraction = 0.2;
constexpr std::uint64_t kPartitionPayloads = 4;

/// Payload-id bases of the per-side partition probes; far above anything
/// the speaking rounds use, so side counters never alias.
constexpr std::uint64_t kMinorityProbeBase = 1'000'000;
constexpr std::uint64_t kMajorityProbeBase = 2'000'000;

/// The recovery-only node fields, riding on the shared mapping.
detail::NodeRuntime::NodeTuner tune_nodes(const RecoveryOptions& rec) {
  return [&rec](PeerId p, core::NodeOptions& options) {
    if (rec.flow_control) options.reliability.window = rec.flow_window;
    if (rec.replication) {
      options.replication.enabled = true;
      options.replication.replicas = rec.replicas;
      options.replication.lease_interval =
          sim::SimTime::seconds(rec.lease_seconds);
    }
    if (rec.reliable_data && rec.slow_peer_stride != 0 &&
        p % rec.slow_peer_stride == 0) {
      // Slow child impairment: a coarser ack cadence starves the parent's
      // ack clock, backing data up in its per-edge sender buffer.
      options.reliability.ack_every *= kSlowAckFactor;
    }
  };
}

/// True while `p` runs and holds the group lease.
bool holds_lease(const Nodes& nodes, PeerId p) {
  return nodes[p]->running() && nodes[p]->is_leaseholder(kGroup);
}

/// After a lease handoff the tree re-roots at the acting leaseholder, so
/// the delivery probe and reachability checks anchor there: the
/// rendezvous while it holds the lease (or nobody does), else the first
/// replica that holds it.
PeerId acting_root(const Nodes& nodes, PeerId rendezvous,
                   std::span<const PeerId> replicas) {
  if (holds_lease(nodes, rendezvous)) return rendezvous;
  for (const auto r : replicas) {
    if (holds_lease(nodes, r)) return r;
  }
  return rendezvous;
}

struct Churn {
  /// The crashes; the leaves are already scheduled.
  sim::FaultPlan plan;
  /// The members that neither crash nor leave, in member order.
  std::vector<PeerId> survivors;
};

/// Shuffles `members`; the first crash_fraction of them crash and the
/// next graceful_fraction leave, staggered across the epoch that starts
/// now so later failures can hit peers already busy recovering from
/// earlier ones.  Schedules the leaves; the crashes go into the plan.
Churn plan_churn(detail::NodeRuntime& runtime, const RecoveryOptions& rec,
                 const std::vector<PeerId>& members) {
  std::vector<PeerId> victims = members;
  runtime.rng().shuffle(victims);
  const auto n_crash = static_cast<std::size_t>(
      rec.crash_fraction * static_cast<double>(members.size()));
  const auto n_leave = static_cast<std::size_t>(
      rec.graceful_fraction * static_cast<double>(members.size()));
  Churn churn;
  const sim::SimTime churn_start = runtime.clock();
  const std::size_t departures = n_crash + n_leave;
  for (std::size_t i = 0; i < departures; ++i) {
    const sim::SimTime at =
        churn_start + sim::SimTime::micros(kEpoch.as_micros() * (i + 1) /
                                           (departures + 1));
    const auto victim = victims[i];
    if (i < n_crash) {
      churn.plan.crashes.push_back(
          sim::CrashEvent{at, static_cast<sim::FaultNodeId>(victim)});
      continue;
    }
    auto* node = runtime.nodes()[victim].get();
    runtime.transport().simulator_for(victim).schedule_at(
        at, [&runtime, node, victim] {
          // The leaver may have given its subscription up (lossy retries
          // exhausted) between scheduling and firing; nothing to leave.
          runtime.drop_subscriber(victim);
          if (node->running() && node->is_subscribed(kGroup)) {
            node->unsubscribe(kGroup);
          }
        });
  }
  const std::unordered_set<PeerId> departed(victims.begin(),
                                            victims.begin() + departures);
  for (const auto m : members) {
    if (!departed.count(m)) churn.survivors.push_back(m);
  }
  return churn;
}

/// Observes recovery epoch by epoch.  An orphan is a survivor found off
/// the tree at an epoch boundary; its orphan time is the number of epochs
/// until it is first seen re-attached (kConvergenceEpochs if never).
void observe_recovery(detail::NodeRuntime& runtime,
                      const std::vector<PeerId>& survivors,
                      ScenarioResult& result) {
  const auto& nodes = runtime.nodes();
  std::unordered_map<PeerId, std::size_t> reattach_epoch;
  std::unordered_set<PeerId> orphans;
  std::size_t epochs_to_converge = kConvergenceEpochs;
  for (std::size_t e = 1; e <= kConvergenceEpochs; ++e) {
    bool converged = true;
    for (const auto s : survivors) {
      const bool attached =
          nodes[s]->on_tree(kGroup) && !nodes[s]->exchange_pending(kGroup);
      if (!attached) {
        converged = false;
        orphans.insert(s);
      } else if (orphans.count(s) && !reattach_epoch.count(s)) {
        reattach_epoch[s] = e - 1;  // epochs spent orphaned
      }
    }
    if (converged && epochs_to_converge == kConvergenceEpochs) {
      epochs_to_converge = e - 1;
      break;
    }
    runtime.advance(kEpoch);
  }
  result.epochs_to_converge = static_cast<double>(epochs_to_converge);
  double total_epochs = 0.0;
  for (const auto o : orphans) {
    const auto it = reattach_epoch.find(o);
    total_epochs += static_cast<double>(
        it != reattach_epoch.end() ? it->second : kConvergenceEpochs);
  }
  result.mean_orphan_epochs =
      detail::share(total_epochs, orphans.size(), 0.0);

  const auto reattached = std::count_if(
      survivors.begin(), survivors.end(),
      [&](PeerId s) { return nodes[s]->on_tree(kGroup); });
  result.reattached_fraction =
      detail::share(reattached, survivors.size(), 1.0);
}

/// The partition's minority side: a connected subtree grown by BFS from
/// the rendezvous root, parents before children, until the target share
/// of the survivors is isolated.  Replicas are never enqueued — they (and
/// everything below them) belong to the majority.  Sorted.
std::vector<PeerId> minority_side(const Nodes& nodes, PeerId rendezvous,
                                  std::span<const PeerId> replicas,
                                  const std::vector<PeerId>& survivors) {
  const std::unordered_set<PeerId> replica_members(replicas.begin(),
                                                   replicas.end());
  const std::unordered_set<PeerId> survivor_set(survivors.begin(),
                                                survivors.end());
  const std::size_t n_minority = std::max<std::size_t>(
      1, static_cast<std::size_t>(kPartitionFraction *
                                  static_cast<double>(survivors.size())));
  std::unordered_set<PeerId> minority_set{rendezvous};
  std::vector<PeerId> frontier{rendezvous};
  std::size_t minority_subscribers = 0;
  for (std::size_t i = 0;
       i < frontier.size() && minority_subscribers < n_minority; ++i) {
    for (const auto child : nodes[frontier[i]]->tree_children(kGroup)) {
      if (minority_subscribers >= n_minority) break;
      if (child >= nodes.size() || !nodes[child]->running()) continue;
      if (replica_members.count(child)) continue;
      if (!minority_set.insert(child).second) continue;
      frontier.push_back(child);
      if (survivor_set.count(child)) ++minority_subscribers;
    }
  }
  std::vector<PeerId> minority(minority_set.begin(), minority_set.end());
  std::sort(minority.begin(), minority.end());
  return minority;
}

/// Both sides publish kPartitionPayloads, the minority from the
/// rendezvous and the majority from the replica that took the lease, and
/// the network runs `window` on.  Each survivor counts the copies of its
/// own side's probe (no delay sample); fills the per-side delivery.
void probe_sides(detail::NodeRuntime& runtime, PeerId rendezvous,
                 std::span<const PeerId> replicas,
                 const std::vector<PeerId>& survivors,
                 const std::vector<PeerId>& minority, sim::SimTime window,
                 ScenarioResult& result) {
  const auto& nodes = runtime.nodes();
  const auto leader =
      std::find_if(replicas.begin(), replicas.end(),
                   [&](PeerId r) { return holds_lease(nodes, r); });
  const PeerId majority_leader =
      leader == replicas.end() ? overlay::kNoPeer : *leader;
  // Atomic tallies, [minority, majority]: the probes land on whatever
  // shard owns the receiver.  Relaxed is enough — totals are read only
  // after the workers park at the epoch barrier.
  std::atomic<std::size_t> deliveries[2] = {0, 0};
  std::size_t probe_nodes[2] = {0, 0};
  for (const auto s : survivors) {
    const bool on_minority =
        std::binary_search(minority.begin(), minority.end(), s);
    const std::size_t side = on_minority ? 0 : 1;
    if (on_minority || s != majority_leader) ++probe_nodes[side];
    nodes[s]->on_data([&deliveries, side](core::GroupId, std::uint64_t id,
                                          PeerId) {
      const bool minority_probe =
          id >= kMinorityProbeBase && id < kMajorityProbeBase;
      if (side == 0 ? minority_probe : id >= kMajorityProbeBase) {
        deliveries[side].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto publish_probe = [&](PeerId from, std::uint64_t base) {
    for (std::uint64_t i = 0; i < kPartitionPayloads; ++i) {
      nodes[from]->publish(kGroup, base + i);
    }
  };
  if (nodes[rendezvous]->running() && nodes[rendezvous]->on_tree(kGroup)) {
    publish_probe(rendezvous, kMinorityProbeBase);
  }
  if (majority_leader != overlay::kNoPeer &&
      nodes[majority_leader]->on_tree(kGroup)) {
    publish_probe(majority_leader, kMajorityProbeBase);
  }
  runtime.advance(window);
  for (const auto s : survivors) nodes[s]->on_data(nullptr);
  result.partition_minority_delivery = detail::share(
      deliveries[0].load(), probe_nodes[0] * kPartitionPayloads, 1.0);
  result.partition_majority_delivery = detail::share(
      deliveries[1].load(), probe_nodes[1] * kPartitionPayloads, 1.0);
}

/// The RP-side partition window and its heal.  The rendezvous point plus
/// a slice of its own subtree are cut off from the rest of the network
/// (every replica stays on the majority side, so the quorum can elect).
/// Both sides publish late in the window, and the heal must merge the
/// divergent lease logs with neither duplicate nor lost epochs.  The
/// partition replaces the `churn` injector as the transport's fault
/// filter until the heal.
void partition_and_heal(detail::NodeRuntime& runtime,
                        const RecoveryOptions& rec, PeerId rendezvous,
                        std::span<const PeerId> replicas,
                        const std::vector<PeerId>& survivors,
                        core::FaultInjector& churn, ScenarioResult& result) {
  const auto& nodes = runtime.nodes();
  std::vector<const core::GroupCastNode*> views;
  views.reserve(nodes.size());
  for (const auto& node : nodes) views.push_back(node.get());
  const auto minority = minority_side(nodes, rendezvous, replicas, survivors);
  // Sides cover every peer: traffic touching a peer listed on neither
  // side would pass the filter and tunnel across the cut.
  std::vector<PeerId> majority;
  for (PeerId p = 0; p < nodes.size(); ++p) {
    if (!std::binary_search(minority.begin(), minority.end(), p)) {
      majority.push_back(p);
    }
  }
  sim::FaultPlan partition_plan;
  partition_plan.partitions.push_back(sim::PartitionWindow{
      runtime.clock(),
      runtime.clock() + sim::SimTime::seconds(rec.partition_seconds),
      std::vector<sim::FaultNodeId>(minority.begin(), minority.end()),
      std::vector<sim::FaultNodeId>(majority.begin(), majority.end())});
  {
    core::FaultInjector partition(std::move(partition_plan),
                                  runtime.transport());
    // Probe late in the window: the majority side's cut subtree heads walk
    // the full recovery ladder (each partitioned rung candidate burns a
    // whole retry ladder) before they reach the elected replica, so the
    // delivery probe measures the *steady* partitioned state, not the
    // failover transient.
    runtime.advance(sim::SimTime::seconds(rec.partition_seconds * 0.8));
    // The majority must have elected by now, and each side may hold at
    // most one leaseholder.
    const auto mid = core::check_replication_invariants(
        views, kGroup, {minority, majority});
    count_violations(result, mid.violations);
    probe_sides(runtime, rendezvous, replicas, survivors, minority,
                sim::SimTime::seconds(rec.partition_seconds * 0.2), result);
  }
  runtime.transport().set_fault_filter(&churn);

  // Heal: members reconcile their epoch logs and the deposed caretaker
  // folds its subtree back under the elected leader.
  auto healed = core::check_replication_invariants(views, kGroup);
  for (std::size_t e = 0;
       e < kConvergenceEpochs &&
       (!healed.ok() || !nodes[rendezvous]->on_tree(kGroup));
       ++e) {
    runtime.advance(kEpoch);
    healed = core::check_replication_invariants(views, kGroup);
  }
  count_violations(result, healed.violations);
  result.lease_handoffs =
      healed.union_records > 0
          ? static_cast<double>(healed.union_records - 1)
          : 0.0;
  result.epoch_conflicts = static_cast<double>(healed.conflicting_records);
}

/// The delivery-ratio probe: `speaker` publishes the speaking round and
/// every survivor counts its copies into `deliveries` and records each
/// copy's end-to-end delay.  The callbacks stay installed, so late copies
/// keep counting and feeding the delay histogram until the run ends;
/// `deliveries` must outlive it.  Returns the share delivered within
/// one epoch.
double probe_delivery(detail::NodeRuntime& runtime,
                      const std::vector<PeerId>& survivors, PeerId speaker,
                      std::size_t payloads,
                      std::atomic<std::size_t>& deliveries) {
  auto& nodes = runtime.nodes();
  const sim::SimTime published_at = runtime.clock();
  for (const auto s : survivors) {
    // The delay sample reads the receiver's own clock, its shard's.
    sim::Simulator& node_sim = runtime.transport().simulator_for(s);
    nodes[s]->on_data([&deliveries, &node_sim, published_at](
                          core::GroupId, std::uint64_t, PeerId) {
      deliveries.fetch_add(1, std::memory_order_relaxed);
      trace::histograms().record(
          trace::HistogramId::kEndToEndDelayUs,
          static_cast<std::uint64_t>(
              (node_sim.now() - published_at).as_micros()));
    });
  }
  for (std::uint64_t payload = 1; payload <= payloads; ++payload) {
    nodes[speaker]->publish(kGroup, payload);
  }
  runtime.advance(kEpoch);
  return detail::share(deliveries.load(), survivors.size() * payloads, 1.0);
}

/// The structural verdict.  Stale relay edges collapse in heartbeat-paced
/// cascades (a lost LeaveMsg is repaired one prune window later, which
/// may fold the parent relay in turn), so the structure gets the same
/// convergence budget before the final verdict instead of being judged
/// on a mid-cascade snapshot.
void check_structure(detail::NodeRuntime& runtime, PeerId rendezvous,
                     std::span<const PeerId> replicas,
                     const std::vector<PeerId>& survivors,
                     ScenarioResult& result) {
  const auto check_tree = [&] {
    return core::check_tree_invariants(
        runtime.tree_view(kGroup),
        acting_root(runtime.nodes(), rendezvous, replicas), survivors);
  };
  auto report = check_tree();
  for (std::size_t e = 0; e < kConvergenceEpochs && !report.ok(); ++e) {
    runtime.advance(kEpoch);
    report = check_tree();
  }
  count_violations(result, report.violations);
  result.invariant_violations_max = result.invariant_violations;
  result.avg_tree_nodes = static_cast<double>(report.tree_nodes);
}

}  // namespace

ScenarioResult run_recovery_scenario(const ScenarioConfig& config) {
  const RecoveryOptions& rec = config.recovery;
  ScenarioResult result;
  // Deployment, engine, transport and one started node per peer.
  detail::NodeRuntime runtime(config, rec, core::TransportOptions{},
                              tune_nodes(rec));
  auto& nodes = runtime.nodes();
  core::Transport& transport = runtime.transport();

  // --- phase 1: establish the group ------------------------------------
  const PeerId rendezvous = runtime.middleware().pick_rendezvous();
  nodes[rendezvous]->create_group(kGroup);
  runtime.advance(kEpoch);  // advertisement flood settles
  // Subscribers keep retrying (graceful leavers drop out of it below)
  // while the tree converges.
  const auto subscribers =
      runtime.pick_peers(config.effective_group_size(), {&rendezvous, 1});
  runtime.subscribe(subscribers, kGroups);
  // Churn acts on the members that actually made it onto the tree as
  // subscribers (a failed subscriber can still sit on the tree as a pure
  // relay — e.g. pulled in as a rendezvous replica — and is not a member).
  const auto members = runtime.attached(subscribers, kGroups);

  // --- phase 2: inject churn -------------------------------------------
  Churn churn = plan_churn(runtime, rec, members);
  const auto& survivors = churn.survivors;
  core::FaultInjector injector(std::move(churn.plan), transport);
  injector.arm([&nodes](PeerId victim) {
    if (victim < nodes.size()) nodes[victim]->crash();
  });
  const std::size_t messages_before_recovery = transport.messages_sent();
  runtime.advance(kEpoch);  // the churn window itself

  // --- phase 3: observe recovery epoch by epoch -------------------------
  observe_recovery(runtime, survivors, result);
  result.control_overhead =
      static_cast<double>(transport.messages_sent() -
                          messages_before_recovery) /
      static_cast<double>(std::max<std::size_t>(1, survivors.size()));

  // --- phase 3b: RP-side partition window and heal ----------------------
  const auto replicas =
      rec.replication
          ? core::rendezvous_replicas(
                kGroup, rendezvous, config.peer_count,
                std::min(rec.replicas, config.peer_count - 1))
          : std::vector<PeerId>{};
  if (rec.replication && rec.partition_seconds > 0.0) {
    partition_and_heal(runtime, rec, rendezvous, replicas, survivors,
                       injector, result);
  }

  // --- phase 4: delivery-ratio probe ------------------------------------
  // The tally outlives the probe: its callbacks stay installed through
  // phase 5, so late copies still feed the end-to-end delay histogram.
  std::atomic<std::size_t> deliveries{0};
  const PeerId speaker =
      nodes[rendezvous]->running() && nodes[rendezvous]->on_tree(kGroup)
          ? rendezvous
          : acting_root(nodes, rendezvous, replicas);
  result.delivery_ratio = probe_delivery(runtime, survivors, speaker,
                                         rec.speaking_payloads, deliveries);

  // --- phase 5: structural invariants -----------------------------------
  check_structure(runtime, rendezvous, replicas, survivors, result);

  // Reuse the engine-level fields that still make sense here so grid
  // reports stay uniform.
  result.subscription_success_rate =
      detail::share(members.size(), subscribers.size(), 1.0);
  runtime.finish(result);
  return result;
}

}  // namespace groupcast::metrics
