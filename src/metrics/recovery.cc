#include "metrics/recovery.h"

#include <algorithm>
#include <atomic>
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
#include "trace/counters.h"
#include "trace/histogram.h"
#include "util/require.h"

namespace groupcast::metrics {

namespace {

void validate(const ScenarioConfig& config) {
  const RecoveryOptions& rec = config.recovery;
  detail::validate_runtime(config, rec, "recovery");
  GC_REQUIRE_MSG(rec.crash_fraction >= 0.0 && rec.crash_fraction <= 1.0,
                 "recovery.crash_fraction must be in [0, 1]");
  GC_REQUIRE_MSG(
      rec.graceful_fraction >= 0.0 && rec.graceful_fraction <= 1.0,
      "recovery.graceful_fraction must be in [0, 1]");
  GC_REQUIRE_MSG(rec.crash_fraction + rec.graceful_fraction <= 1.0,
                 "crash_fraction + graceful_fraction must stay <= 1");
  GC_REQUIRE(rec.speaking_payloads >= 1);
  GC_REQUIRE_MSG(rec.partition_seconds >= 0.0,
                 "recovery.partition_seconds must be >= 0");
  GC_REQUIRE_MSG(rec.partition_seconds == 0.0 || rec.replication,
                 "recovery.partition_seconds requires replication");
  if (rec.replication) {
    GC_REQUIRE_MSG(rec.replicas >= 1, "recovery.replicas must be >= 1");
    GC_REQUIRE_MSG(rec.lease_seconds > 0.0,
                   "recovery.lease_seconds must be > 0");
  }
}

constexpr core::GroupId kGroup = 1;

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

}  // namespace

ScenarioResult run_recovery_scenario(const ScenarioConfig& config) {
  const RecoveryOptions& rec = config.recovery;
  validate(config);
  ScenarioResult result;

  // Deployment, engine, transport and one started node per peer; the
  // recovery-only node fields ride on the shared mapping.
  detail::NodeRuntime runtime(
      config, rec, core::TransportOptions{},
      [&rec](overlay::PeerId p, core::NodeOptions& options) {
        if (rec.flow_control) options.reliability.window = rec.flow_window;
        if (rec.replication) {
          options.replication.enabled = true;
          options.replication.replicas = rec.replicas;
          options.replication.lease_interval =
              sim::SimTime::seconds(rec.lease_seconds);
          // Ladder targeting must round-robin over at least the replica
          // quorum, or an orphan could never reach the elected
          // leaseholder.
          options.rendezvous_replicas =
              std::max(options.rendezvous_replicas, rec.replicas);
        }
        if (rec.reliable_data && rec.slow_peer_stride != 0 &&
            p % rec.slow_peer_stride == 0) {
          // Slow child impairment: a coarser ack cadence starves the
          // parent's ack clock, backing data up in its per-edge sender
          // buffer.
          options.reliability.ack_every *= kSlowAckFactor;
        }
      });
  core::GroupCastMiddleware& middleware = runtime.middleware();
  util::Rng& rng = runtime.rng();
  core::Transport& transport = runtime.transport();
  auto& nodes = runtime.nodes();

  // --- phase 1: establish the group ------------------------------------
  const overlay::PeerId rendezvous = middleware.pick_rendezvous();
  nodes[rendezvous]->create_group(kGroup);
  runtime.advance(kEpoch);  // advertisement flood settles

  std::vector<overlay::PeerId> subscribers;
  const std::size_t group_size = config.effective_group_size();
  for (const auto idx :
       rng.sample_indices(config.peer_count, std::min(group_size + 1,
                                                      config.peer_count))) {
    const auto p = static_cast<overlay::PeerId>(idx);
    if (p == rendezvous || subscribers.size() == group_size) continue;
    subscribers.push_back(p);
  }
  // Application-level retry loop (graceful leavers drop out of it below),
  // then the tree converges.
  for (const auto s : subscribers) runtime.arm_subscriber(s);
  runtime.on_shards(subscribers, [&nodes](overlay::PeerId s) {
    nodes[s]->subscribe(kGroup);
  });
  runtime.settle(subscribers, {&kGroup, 1});

  // Churn acts on the members that actually made it onto the tree as
  // subscribers (a failed subscriber can still sit on the tree as a pure
  // relay — e.g. pulled in as a rendezvous replica — and is not a member).
  std::vector<overlay::PeerId> members;
  for (const auto s : subscribers) {
    if (nodes[s]->is_subscribed(kGroup) && nodes[s]->on_tree(kGroup)) {
      members.push_back(s);
    }
  }

  // --- phase 2: inject churn -------------------------------------------
  std::vector<overlay::PeerId> victims = members;
  rng.shuffle(victims);
  const auto n_crash = static_cast<std::size_t>(
      rec.crash_fraction * static_cast<double>(members.size()));
  const auto n_leave = static_cast<std::size_t>(
      rec.graceful_fraction * static_cast<double>(members.size()));
  sim::FaultPlan plan;
  // Stagger the departures across one epoch so later failures can hit
  // peers that are already busy recovering from earlier ones.
  const sim::SimTime churn_start = runtime.clock();
  const std::size_t departures = n_crash + n_leave;
  for (std::size_t i = 0; i < departures; ++i) {
    const sim::SimTime at =
        churn_start + sim::SimTime::micros(kEpoch.as_micros() * (i + 1) /
                                           (departures + 1));
    if (i < n_crash) {
      plan.crashes.push_back(
          sim::CrashEvent{at, static_cast<sim::FaultNodeId>(victims[i])});
    } else {
      const auto leaver = victims[i];
      transport.simulator_for(leaver).schedule_at(at, [&runtime, &nodes,
                                                       leaver] {
        // The leaver may have given its subscription up (lossy retries
        // exhausted) between scheduling and firing; nothing to leave then.
        runtime.drop_subscriber(leaver);
        if (nodes[leaver]->running() &&
            nodes[leaver]->is_subscribed(kGroup)) {
          nodes[leaver]->unsubscribe(kGroup);
        }
      });
    }
  }
  core::FaultInjector injector(std::move(plan), transport);
  injector.arm([&nodes](overlay::PeerId victim) {
    if (victim < nodes.size()) nodes[victim]->crash();
  });

  std::unordered_set<overlay::PeerId> departed;
  for (std::size_t i = 0; i < departures && i < victims.size(); ++i) {
    departed.insert(victims[i]);
  }
  std::vector<overlay::PeerId> survivors;
  for (const auto m : members) {
    if (!departed.count(m)) survivors.push_back(m);
  }

  const std::size_t messages_before_recovery = transport.messages_sent();
  runtime.advance(kEpoch);  // the churn window itself

  // --- phase 3: observe recovery epoch by epoch -------------------------
  // An orphan is a survivor found off the tree at an epoch boundary; its
  // orphan time is the number of epochs until it is first seen re-attached
  // (kConvergenceEpochs if never).
  std::unordered_map<overlay::PeerId, std::size_t> reattach_epoch;
  std::unordered_set<overlay::PeerId> orphans;
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
  if (!orphans.empty()) {
    double total_epochs = 0.0;
    for (const auto o : orphans) {
      const auto it = reattach_epoch.find(o);
      total_epochs += static_cast<double>(
          it != reattach_epoch.end() ? it->second : kConvergenceEpochs);
    }
    result.mean_orphan_epochs =
        total_epochs / static_cast<double>(orphans.size());
  }

  std::size_t reattached = 0;
  for (const auto s : survivors) {
    if (nodes[s]->on_tree(kGroup)) ++reattached;
  }
  result.reattached_fraction =
      survivors.empty() ? 1.0
                        : static_cast<double>(reattached) /
                              static_cast<double>(survivors.size());
  result.control_overhead =
      static_cast<double>(transport.messages_sent() -
                          messages_before_recovery) /
      static_cast<double>(std::max<std::size_t>(1, survivors.size()));

  // --- phase 3b: RP-side partition window and heal ----------------------
  // The rendezvous point plus a slice of its own subtree are cut off from
  // the rest of the network (every replica stays on the majority side, so
  // the quorum can elect).  Both sides publish mid-window; delivery is
  // counted per side, and the heal must merge the divergent lease logs
  // with neither duplicate nor lost epochs.
  if (rec.replication && rec.partition_seconds > 0.0) {
    std::vector<const core::GroupCastNode*> views;
    views.reserve(nodes.size());
    for (const auto& node : nodes) views.push_back(node.get());
    const auto replica_set = core::rendezvous_replicas(
        kGroup, rendezvous, config.peer_count,
        std::min(rec.replicas, config.peer_count - 1));
    const std::unordered_set<overlay::PeerId> replica_members(
        replica_set.begin(), replica_set.end());
    const std::unordered_set<overlay::PeerId> survivor_set(survivors.begin(),
                                                           survivors.end());
    // The minority side is a connected subtree: BFS from the rendezvous
    // root, parents before children, until the target share of surviving
    // subscribers is isolated.  Replicas are never enqueued — they (and
    // everything below them) belong to the majority.
    const std::size_t n_minority = std::max<std::size_t>(
        1, static_cast<std::size_t>(kPartitionFraction *
                                    static_cast<double>(survivors.size())));
    std::unordered_set<overlay::PeerId> minority_set{rendezvous};
    std::vector<overlay::PeerId> frontier{rendezvous};
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
    std::vector<overlay::PeerId> minority(minority_set.begin(),
                                          minority_set.end());
    std::sort(minority.begin(), minority.end());
    std::vector<overlay::PeerId> majority;
    for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
      if (!minority_set.count(p)) majority.push_back(p);
    }
    // Sides cover every peer: traffic touching a peer listed on neither
    // side would pass the filter and tunnel across the cut.
    sim::FaultPlan partition_plan;
    partition_plan.partitions.push_back(sim::PartitionWindow{
        runtime.clock(),
        runtime.clock() + sim::SimTime::seconds(rec.partition_seconds),
        std::vector<sim::FaultNodeId>(minority.begin(), minority.end()),
        std::vector<sim::FaultNodeId>(majority.begin(), majority.end())});
    {
      // Scoped: constructing the injector replaces the churn injector as
      // the transport's fault filter; it is restored below.
      core::FaultInjector partition_injector(std::move(partition_plan),
                                             transport);
      // Probe late in the window: the majority side's cut subtree heads
      // walk the full recovery ladder (each partitioned rung candidate
      // burns a whole retry ladder) before they reach the elected
      // replica, so the delivery probe measures the *steady* partitioned
      // state, not the failover transient.
      runtime.advance(sim::SimTime::seconds(rec.partition_seconds * 0.8));

      // The majority must have elected by now, and each side may hold at
      // most one leaseholder.
      const auto mid = core::check_replication_invariants(
          views, kGroup, {minority, majority});
      result.invariant_violations +=
          static_cast<double>(mid.violations.size());

      overlay::PeerId majority_leader = overlay::kNoPeer;
      for (const auto r : replica_set) {
        if (nodes[r]->running() && nodes[r]->is_leaseholder(kGroup)) {
          majority_leader = r;
          break;
        }
      }
      // Atomic tallies: the probes land on whatever shard owns the
      // receiver.  Relaxed is enough — totals are read only
      // after the workers park at the epoch barrier.
      std::atomic<std::size_t> minority_deliveries{0};
      std::atomic<std::size_t> majority_deliveries{0};
      for (const auto s : survivors) {
        const bool minority_side = minority_set.count(s) != 0;
        nodes[s]->on_data([&minority_deliveries, &majority_deliveries,
                           minority_side](core::GroupId, std::uint64_t id,
                                          overlay::PeerId) {
          if (id >= kMinorityProbeBase && id < kMajorityProbeBase) {
            if (minority_side) {
              minority_deliveries.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (id >= kMajorityProbeBase) {
            if (!minority_side) {
              majority_deliveries.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      if (nodes[rendezvous]->running() &&
          nodes[rendezvous]->on_tree(kGroup)) {
        for (std::uint64_t i = 0; i < kPartitionPayloads; ++i) {
          nodes[rendezvous]->publish(kGroup, kMinorityProbeBase + i);
        }
      }
      if (majority_leader != overlay::kNoPeer &&
          nodes[majority_leader]->on_tree(kGroup)) {
        for (std::uint64_t i = 0; i < kPartitionPayloads; ++i) {
          nodes[majority_leader]->publish(kGroup, kMajorityProbeBase + i);
        }
      }
      runtime.advance(sim::SimTime::seconds(rec.partition_seconds * 0.2));
      for (const auto s : survivors) nodes[s]->on_data(nullptr);

      std::size_t minority_probe_nodes = 0;
      std::size_t majority_probe_nodes = 0;
      for (const auto s : survivors) {
        if (minority_set.count(s)) {
          ++minority_probe_nodes;
        } else if (s != majority_leader) {
          ++majority_probe_nodes;
        }
      }
      result.partition_minority_delivery =
          minority_probe_nodes == 0
              ? 1.0
              : static_cast<double>(minority_deliveries.load()) /
                    static_cast<double>(minority_probe_nodes *
                                        kPartitionPayloads);
      result.partition_majority_delivery =
          majority_probe_nodes == 0
              ? 1.0
              : static_cast<double>(majority_deliveries.load()) /
                    static_cast<double>(majority_probe_nodes *
                                        kPartitionPayloads);
    }
    transport.set_fault_filter(&injector);  // restore the churn plan

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
    result.invariant_violations +=
        static_cast<double>(healed.violations.size());
    result.lease_handoffs =
        healed.union_records > 0
            ? static_cast<double>(healed.union_records - 1)
            : 0.0;
    result.epoch_conflicts =
        static_cast<double>(healed.conflicting_records);
  }

  // After a lease handoff the tree re-roots at the acting leaseholder, so
  // the delivery probe and reachability checks anchor there, not at the
  // original rendezvous point.
  const auto acting_root = [&]() -> overlay::PeerId {
    if (!rec.replication) return rendezvous;
    if (nodes[rendezvous]->running() &&
        nodes[rendezvous]->is_leaseholder(kGroup)) {
      return rendezvous;
    }
    for (const auto r : core::rendezvous_replicas(
             kGroup, rendezvous, config.peer_count,
             std::min(rec.replicas, config.peer_count - 1))) {
      if (nodes[r]->running() && nodes[r]->is_leaseholder(kGroup)) return r;
    }
    return rendezvous;
  };

  // --- phase 4: delivery-ratio probe ------------------------------------
  std::atomic<std::size_t> deliveries{0};
  const sim::SimTime published_at = runtime.clock();
  for (const auto s : survivors) {
    // The delay sample reads the receiver's own clock, its shard's.
    sim::Simulator& node_sim = transport.simulator_for(s);
    nodes[s]->on_data([&deliveries, &node_sim, published_at](
                          core::GroupId, std::uint64_t, overlay::PeerId) {
      deliveries.fetch_add(1, std::memory_order_relaxed);
      trace::histograms().record(
          trace::HistogramId::kEndToEndDelayUs,
          static_cast<std::uint64_t>(
              (node_sim.now() - published_at).as_micros()));
    });
  }
  const overlay::PeerId speaker =
      nodes[rendezvous]->running() && nodes[rendezvous]->on_tree(kGroup)
          ? rendezvous
          : acting_root();
  for (std::uint64_t payload = 1; payload <= rec.speaking_payloads;
       ++payload) {
    nodes[speaker]->publish(kGroup, payload);
  }
  runtime.advance(kEpoch);
  const std::size_t expected = survivors.size() * rec.speaking_payloads;
  result.delivery_ratio =
      expected == 0 ? 1.0
                    : static_cast<double>(deliveries.load()) /
                          static_cast<double>(expected);

  // --- phase 5: structural invariants -----------------------------------
  // Stale relay edges collapse in heartbeat-paced cascades (a lost
  // LeaveMsg is repaired one prune window later, which may fold the
  // parent relay in turn), so give the structure the same convergence
  // budget before the final verdict instead of judging a mid-cascade
  // snapshot.
  const auto check_tree = [&] {
    return core::check_tree_invariants(runtime.tree_view(kGroup),
                                       acting_root(), survivors);
  };
  auto report = check_tree();
  for (std::size_t e = 0; e < kConvergenceEpochs && !report.ok(); ++e) {
    runtime.advance(kEpoch);
    report = check_tree();
  }
  result.invariant_violations +=
      static_cast<double>(report.violations.size());
  result.invariant_violations_max = result.invariant_violations;
  result.avg_tree_nodes = static_cast<double>(report.tree_nodes);

  // Reuse the engine-level fields that still make sense here so grid
  // reports stay uniform.
  result.subscription_success_rate =
      subscribers.empty() ? 1.0
                          : static_cast<double>(members.size()) /
                                static_cast<double>(subscribers.size());
  runtime.finish(result);
  return result;
}

}  // namespace groupcast::metrics
