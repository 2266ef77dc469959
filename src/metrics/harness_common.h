// The node-runtime core shared by the recovery and streaming harnesses
// (metrics/recovery.h, metrics/streaming.h): one place that stands up a
// deployment of core::GroupCastNode peers on a sim::ShardSet, drives it
// epoch by epoch, keeps subscribers retrying, and captures the engine
// and trace facilities into the result.  The harnesses keep only their
// own phases on top.  Not part of the public metrics API.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/invariants.h"
#include "core/middleware.h"
#include "core/node.h"
#include "core/shard_partition.h"
#include "core/transport.h"
#include "metrics/experiment.h"
#include "sim/shard_set.h"
#include "util/rng.h"

namespace groupcast::metrics::detail {

struct ShardTrace;

/// Sets the crossover when the runtime chooses the shard count: a run of
/// fewer than 2 * kPeersPerShard peers gets one shard, a larger one every
/// hardware thread.  Measured (docs/PERFORMANCE.md, "Choosing the shard
/// count"): at 5k peers a second wheel buys the churn harness 17%, while
/// from 10k peers up four shards beat two by 27% or more.
inline constexpr std::size_t kPeersPerShard = 5000;

/// The shard count a run of `config` executes on.  An explicit
/// config.shards (>= 1) is kept.  config.shards == 0 lets the runtime
/// choose: 1 for an engine-level scenario, while the calling thread's
/// tracer has a sink (the per-event stream is one thread's), and on a
/// util::parallel_for worker (a grid cell must not oversubscribe the
/// cores), and below 2 * kPeersPerShard peers; otherwise the hardware
/// thread count.  Results are byte-identical at every count, so the
/// choice moves only the wall time and the engine gauges.
std::size_t resolve_shards(const ScenarioConfig& config);

/// Rejects a run whose shared runtime fields or shard count are out of
/// range; `harness` ("recovery" / "streaming") names the option struct in
/// the messages.
void validate_runtime(const ScenarioConfig& config,
                      const RuntimeOptions& runtime, const char* harness);

/// One node-runtime run.  Construction, in this order: builds the middleware
/// from the config (forking an attached world) and splits the harness RNG off
/// it; splits the peers by stub domain over resolve_shards(config) shards
/// (core::partition_shards) and starts a ShardSet of that many wheels with
/// the split's lookahead; constructs the transport on it; gives every shard
/// its own trace registries; maps the runtime fields onto
/// core::NodeOptions; then constructs and starts one node per peer.  Every
/// RNG split and event schedule happens in that fixed order, so a (config,
/// seed) pair is one deterministic trajectory whatever the grid's job
/// count.  Destruction tears each shard's nodes down on its worker.
class NodeRuntime {
 public:
  /// Per-peer refinement of the shared NodeOptions mapping, for harness
  /// fields the runtime does not know (recovery's flow window,
  /// replication and slow peers).
  using NodeTuner = std::function<void(overlay::PeerId, core::NodeOptions&)>;

  NodeRuntime(const ScenarioConfig& config, const RuntimeOptions& runtime,
              core::TransportOptions transport_options,
              const NodeTuner& tune = nullptr);
  ~NodeRuntime();
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  core::GroupCastMiddleware& middleware() { return *middleware_; }
  /// The harness's own RNG stream, split off the middleware's.
  util::Rng& rng() { return rng_; }
  core::Transport& transport() { return transport_; }
  std::vector<std::unique_ptr<core::GroupCastNode>>& nodes() {
    return nodes_;
  }
  sim::ShardSet& engine() { return engine_; }
  /// The shard whose worker runs `peer`'s events.
  std::size_t shard_of(overlay::PeerId peer) const {
    return partition_.peer_shard[peer];
  }

  /// Runs `fn(p)` for every p in `peers`, each on the worker of p's shard
  /// (the calling thread at one shard); a shard visits its peers in list
  /// order, and the call returns once every shard is done.  A node call
  /// schedules only on its own shard's wheel and sends through its shard's
  /// outbox, so a loop of node calls run this way leaves every wheel as
  /// the serial loop would.  Call it between advance() calls only.
  void on_shards(std::span<const overlay::PeerId> peers,
                 const std::function<void(overlay::PeerId)>& fn);
  /// `group`'s tree view (core::TreeView), each shard's rows filled on its
  /// worker; equal to core::tree_view over the nodes.
  core::TreeView tree_view(core::GroupId group);

  /// The harness clock, which the engine's matches: the sum of every
  /// advance() so far.
  sim::SimTime clock() const { return clock_; }
  /// Runs the engine `by` past the harness clock.  While the flight
  /// recorder is on, the run stops at every kEpoch multiple it crosses
  /// and captures a frame there; while it is off, this is one
  /// ShardSet::run_until.
  void advance(sim::SimTime by);

  /// Application-level retry loop: marks `peer` as wanting its groups and
  /// re-subscribes it one epoch after any terminal subscribe failure (the
  /// ladder's give-up callback), as a real client would.
  void arm_subscriber(overlay::PeerId peer);
  /// Ends the retry loop for `peer` (a graceful leaver).  Call it from
  /// the peer's own shard: the per-peer flag is never locked.
  void drop_subscriber(overlay::PeerId peer) { want_[peer] = 0; }
  /// Advances epoch by epoch, at most kConvergenceEpochs times, until no
  /// peer has a control exchange pending on any of `groups`.
  void settle(std::span<const overlay::PeerId> peers,
              std::span<const core::GroupId> groups);

  /// Folds the shard trace back and captures the run into `result`: the
  /// config (with the shard count that ran), repair edges, messages sent
  /// in all and by kind, the engine's event counts, queue high-water,
  /// epochs and lookahead, the counter and histogram snapshots, and (with
  /// a final frame) the flight-recorder timeline.
  void finish(ScenarioResult& result);

 private:
  /// Captures a flight-recorder frame at the engine clock: the run's
  /// counter totals and histogram sample counts so far, summed over the
  /// caller's and the shards' registries.  A no-op while the recorder is
  /// off.  Construction captures the first frame, once every node has
  /// started.
  void capture_frame();

  void resubscribe_later(overlay::PeerId peer, core::GroupId group);

  /// The caller's config with config.shards resolved.
  const ScenarioConfig config_;
  std::unique_ptr<core::GroupCastMiddleware> middleware_;
  util::Rng rng_;
  core::ShardPartition partition_;
  // The engine is declared before the transport (the ShardSet's client)
  // so the transport is torn down first.
  sim::ShardSet engine_;
  core::Transport transport_;
  std::vector<std::unique_ptr<ShardTrace>> shard_trace_;
  /// The calling thread's registries from before the shards' were
  /// installed (at one shard those replace them on the calling thread).
  trace::CounterRegistry* caller_counters_ = nullptr;
  trace::HistogramRegistry* caller_histograms_ = nullptr;
  /// Each shard's peers in ascending order.
  std::vector<std::vector<overlay::PeerId>> shard_peers_;
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes_;
  /// Which peers still want their groups.  A per-peer byte vector rather
  /// than a shared set: every entry is only touched by closures of that
  /// one peer, which all run on its own shard, so no lock is needed.
  std::vector<char> want_;
  sim::SimTime clock_ = sim::SimTime::zero();
};

}  // namespace groupcast::metrics::detail
