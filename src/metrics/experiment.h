// Shared experiment harness for the Figure 11–17 sweeps: builds a
// deployment, establishes communication groups, and aggregates the paper's
// metrics.  Each bench binary drives this with its own parameter grid.
//
// Scenario points and their seed repetitions are independent, so
// run_scenario_grid executes them on a worker pool (GridOptions::jobs).
// Determinism contract: for fixed seeds the results — every metric field
// and the counter snapshots — are byte-identical whatever the job count,
// because each run owns an isolated RNG stream (the middleware derives it
// from the repetition's seed) and an isolated trace::CounterRegistry, and
// the per-point reduction always folds repetitions in seed order.
#pragma once

#include <span>
#include <vector>

#include "core/message.h"
#include "core/middleware.h"
#include "metrics/esm_metrics.h"
#include "trace/counters.h"
#include "trace/flight_recorder.h"
#include "trace/histogram.h"

namespace groupcast::metrics {

/// The node-runtime fields shared by both harnesses that stand up one
/// core::GroupCastNode per peer (metrics/recovery.h, metrics/streaming.h).
/// Declared, defaulted and validated once; RecoveryOptions and
/// StreamingOptions inherit them.  With `enabled == false` (the default)
/// every other field is inert and run_scenario behaves exactly as before,
/// keeping existing goldens byte-identical.
struct RuntimeOptions {
  bool enabled = false;
  /// Steady-state per-message loss probability of the transport, [0, 1].
  double loss_probability = 0.0;
  /// Data-plane NACK/retransmit reliability on tree edges
  /// (core::DataReliabilityOptions, defaults).  Off keeps group data on
  /// the legacy fire-and-forget path, byte-identical to before.
  bool reliable_data = false;
  /// Sender-side flow control on reliable edges
  /// (core::DataReliabilityOptions::flow_control): data beyond the window
  /// parks at the sender and a throttle signal propagates up the tree.
  /// Requires reliable_data.
  bool flow_control = false;
  /// Adaptive failure detection and NACK cadence
  /// (core::NodeOptions::adaptive): per-edge loss/RTT estimators widen
  /// the heartbeat miss window and shorten NACK delays online.
  bool adaptive = false;
};

/// Length of one convergence epoch: the node-runtime harnesses' unit of
/// settling and observation, and the delay before a subscriber whose
/// retry ladder gave up subscribes again.
inline constexpr sim::SimTime kEpoch = sim::SimTime::seconds(4.0);
/// Epochs a harness waits for the tree to (re-)converge before giving up.
inline constexpr std::size_t kConvergenceEpochs = 10;

/// Switches a scenario from the engine-level pipeline to the node-runtime
/// churn harness (metrics/recovery.h).  Churn is injected over one epoch;
/// recovery is then observed epoch by epoch.
struct RecoveryOptions : RuntimeOptions {
  /// Fraction of subscribers crashed ungracefully (no leave), [0, 1].
  double crash_fraction = 0.0;
  /// Fraction of subscribers leaving gracefully during churn, [0, 1].
  /// crash_fraction + graceful_fraction must stay <= 1.
  double graceful_fraction = 0.0;
  /// Payloads of the post-churn speaking round (delivery-ratio probe).
  std::size_t speaking_payloads = 4;
  /// Sender window per directed edge, in sequences (flow_control only).
  std::size_t flow_window = 32;
  /// Every slow_peer_stride-th peer acks at a 10-times coarser cadence
  /// (a "slow child"); 0 disables the impairment.
  std::size_t slow_peer_stride = 0;
  /// Rendezvous replication with leased leadership and quorum handoff
  /// (core::ReplicationOptions).  Off keeps every message, timer and RNG
  /// draw byte-identical to before.
  bool replication = false;
  /// Replica count beside the rendezvous point (replication only).
  std::size_t replicas = 2;
  /// Lease renewal interval, seconds (> 0, replication only); the lease
  /// duration — takeover patience — is four renewal intervals.
  double lease_seconds = 0.5;
  /// Length of the RP-side partition window injected after recovery has
  /// converged, seconds; 0 disables the partition phase.  Requires
  /// replication: the phase exists to measure leased failover.  A fifth
  /// of the survivors is isolated with the rendezvous point on the
  /// minority side (every replica stays on the majority side so a quorum
  /// can elect), and each side publishes four payloads in the window.
  double partition_seconds = 0.0;
};

/// Multi-source group layout for the streaming harness.
struct MultiSourceOptions {
  enum class Mode : std::uint8_t {
    /// All publishers feed one shared dissemination tree (one group);
    /// non-root sources publish up through their own attachment point.
    kSharedTree = 0,
    /// Every publisher roots its own tree (one group per source) with the
    /// same viewer set subscribed to all of them.
    kPerSourceTrees,
  };
  /// Concurrent publishers (streams), >= 1.
  std::size_t publishers = 1;
  Mode mode = Mode::kSharedTree;
};

/// Switches a scenario to the live-streaming workload harness
/// (metrics/streaming.h): chunked payloads with playback deadlines over
/// the (optionally reliable) data plane, per-peer bandwidth caps, multi-
/// source groups, and an optional flash crowd joining mid-stream.  The
/// convergence epochs run before streaming starts.
struct StreamingOptions : RuntimeOptions {
  /// Chunks each publisher emits, >= 1.
  std::size_t chunks = 50;
  /// Publisher chunk cadence, seconds (> 0).  100 ms ~= a 10 fps
  /// segmenter; one chunk per interval per stream.
  double chunk_interval_seconds = 0.1;
  /// Simulated chunk size, bytes (>= 1, <= core wire limit).  Drives the
  /// transport's token-bucket pacing when caps are set.
  std::size_t chunk_bytes = 16 * 1024;
  /// Playback deadline after each chunk's publish instant, seconds (> 0):
  /// a chunk arriving later counts as late/missed at the viewer.
  double deadline_seconds = 2.0;
  /// Per-peer access-link caps in kbit/s (0 = uncapped); forwarded to
  /// core::TransportOptions::bandwidth.
  double uplink_kbps = 0.0;
  double downlink_kbps = 0.0;
  /// Scale both caps by each peer's capacity class (Table 1 flows).
  bool scale_caps_with_capacity = false;
  /// Publisher count and tree layout.
  MultiSourceOptions sources;
  /// Peers that join mid-stream against the warm tree (0 = no flash
  /// crowd), spread uniformly over flash_crowd_seconds.
  std::size_t flash_crowd_joins = 0;
  double flash_crowd_seconds = 1.0;
};

struct ScenarioConfig {
  std::size_t peer_count = 1000;
  core::OverlayKind overlay = core::OverlayKind::kGroupCast;
  core::AnnouncementScheme scheme = core::AnnouncementScheme::kSsaUtility;
  /// Communication groups per overlay (paper: 10).
  std::size_t groups = 10;
  /// Subscribers per group; 0 means peer_count / 10 (min 16).
  std::size_t group_size = 0;
  std::uint64_t seed = 1;
  /// Forwarded to the middleware's advertisement options.
  double forward_fraction = 0.35;
  std::size_t advertisement_ttl = 8;
  std::size_t ripple_ttl = 2;
  /// Node-runtime churn harness; inert unless recovery.enabled.
  RecoveryOptions recovery;
  /// Live-streaming workload harness; inert unless streaming.enabled.
  /// Mutually exclusive with recovery.enabled.
  StreamingOptions streaming;

  /// Shards of the node-runtime harnesses' event kernel
  /// (sim/shard_set.h): peers are partitioned by access router across N
  /// conservative-lookahead wheels; 1 runs on the calling thread, N >= 2
  /// on N workers.  0 (the default) lets the runtime choose, the way
  /// GridOptions::jobs = 0 does: one shard per kPeersPerShard (5000)
  /// peers up to the hardware thread count, and 1 for engine-level
  /// scenarios, under a trace sink or on a grid worker
  /// (metrics/harness_common.h, resolve_shards).  Results are
  /// byte-identical at every N except the engine gauges events_per_shard
  /// and queue_high_water; ScenarioResult::config records the count that
  /// ran.  Must not exceed peer_count.  Engine-level scenarios reject
  /// shards > 1.
  std::size_t shards = 0;

  /// Pre-built deployment to fork instead of constructing one from
  /// middleware_config() (see core::DeploymentSnapshot).  Normally left
  /// null by callers: run_scenario_grid fills it in automatically for
  /// work items that share a middleware config, so a sweep pays for
  /// underlay + embedding + bootstrap once per distinct world rather
  /// than once per cell.  A fork is bit-identical to a fresh
  /// construction, so attaching a snapshot never changes results; one
  /// whose config differs from middleware_config() is refused.
  std::shared_ptr<const core::DeploymentSnapshot> world;

  std::size_t effective_group_size() const;
  core::MiddlewareConfig middleware_config() const;
};

/// Aggregated over all groups of one scenario run.
struct ScenarioResult {
  ScenarioConfig config;

  // Figure 11: message loads.
  double advertisement_messages = 0.0;   // mean per group
  double subscription_messages = 0.0;    // mean per group

  // Node-runtime harnesses only (all zero otherwise): the transport's
  // sends by message kind, whose total is the run's messages sent.  The
  // averaged/grid runners sum the counts across repetitions.
  core::MessageStats messages_by_kind;

  // Figure 12: rates.
  double receiving_rate = 0.0;           // mean fraction reached by advert
  double subscription_success_rate = 0.0;

  // Figure 13: lookup latency.
  double lookup_latency_ms = 0.0;

  // Figures 14–17, averaged over groups.
  double delay_penalty = 0.0;
  double link_stress = 0.0;
  double node_stress = 0.0;
  double overload_index = 0.0;

  // Diagnostics.
  double avg_tree_depth = 0.0;
  double avg_tree_nodes = 0.0;
  std::size_t repair_edges = 0;

  // Robustness harness (metrics/recovery.h) — populated only when
  // config.recovery.enabled; all zero otherwise.
  double delivery_ratio = 0.0;        // post-churn speaking round
  double reattached_fraction = 0.0;   // surviving subscribers back on tree
  double mean_orphan_epochs = 0.0;    // mean epochs orphans stayed cut off
  double epochs_to_converge = 0.0;    // convergence_epochs if never
  double control_overhead = 0.0;      // recovery-window msgs / survivor
  // core/invariants.h at the end; must stay 0, so reductions sum it and
  // keep the worst repetition's count in invariant_violations_max.
  double invariant_violations = 0.0;
  double invariant_violations_max = 0.0;

  // Partition-heal sweep (recovery.replication + partition_seconds > 0;
  // all zero otherwise).  Delivery ratios are measured per partition side
  // during the window: the majority side is served by the elected
  // leaseholder, the minority side by its caretaker subtree.
  double partition_majority_delivery = 0.0;
  double partition_minority_delivery = 0.0;
  double lease_handoffs = 0.0;        // committed takeovers (counter sum)
  double epoch_conflicts = 0.0;       // must stay 0; summed, not averaged

  // Streaming harness (metrics/streaming.h) — populated only when
  // config.streaming.enabled; all zero otherwise.  Viewer-eligible means
  // a (viewer, chunk) pair where the chunk was published after the viewer
  // joined (flash joiners are scored live, not against the back-catalog).
  double chunk_miss_ratio = 0.0;      // eligible chunks not played on time
  double startup_delay_ms = 0.0;      // mean join-to-first-played delay
  double rebuffer_events = 0.0;       // mean missed-chunk runs per viewer
  double chunks_played_per_viewer = 0.0;
  double flash_attach_fraction = 0.0; // flash joiners on the tree at the end

  // Dispersion across the groups of one deployment — populated by
  // run_scenario when groups >= 2 (sample stddev over the per-group
  // values behind the means above).
  double delay_penalty_group_stddev = 0.0;
  double overload_index_group_stddev = 0.0;
  double link_stress_group_stddev = 0.0;
  double lookup_latency_group_stddev = 0.0;

  // Dispersion across topologies — only populated by
  // run_scenario_averaged / run_scenario_grid with repetitions >= 2
  // (sample stddev).
  double delay_penalty_stddev = 0.0;
  double overload_index_stddev = 0.0;
  double link_stress_stddev = 0.0;
  /// Seed-to-seed spread of the recovery harness's headline outcomes
  /// (zero when recovery is off or repetitions < 2).  Loss sweeps must
  /// report this: a 50% mean delivery ratio hides whether every seed
  /// lost half the probes or half the seeds lost everything.
  double delivery_ratio_stddev = 0.0;
  double reattached_fraction_stddev = 0.0;
  /// Seed-to-seed spread of the streaming headline (zero when streaming
  /// is off or repetitions < 2), for the same reason as delivery_ratio.
  double chunk_miss_ratio_stddev = 0.0;

  // Event-loop workload: how many events the run fired and the deepest
  // one event queue ever got (for the node-runtime harnesses, the maximum
  // over the shard wheels, so it varies with the shard count).  The
  // averaged/grid runners sum events across repetitions and keep the
  // maximum queue depth, so the numbers describe the whole point, not one
  // topology.
  std::uint64_t events_fired = 0;
  std::uint64_t queue_high_water = 0;

  // Per-shard event counts of the node-runtime harnesses' ShardSet
  // (config.shards entries; empty for engine-level runs).  events_fired is
  // their sum, which is shard-count invariant; the per-shard split exposes
  // load imbalance.
  // The averaged/grid runners sum the vectors element-wise across
  // repetitions.
  std::vector<std::uint64_t> events_per_shard;

  // Protocol counters, captured from the calling thread's active registry
  // (trace::counters()) when it is enabled — empty otherwise.  The
  // grid/averaged runners instead give every repetition an isolated,
  // per-run registry and store the order-independent merge of the
  // repetition snapshots here.
  trace::CounterSnapshot counters;

  // Sim-time distributions (edge delay, hop count, end-to-end delay,
  // NACK repair), captured like `counters` from the active
  // trace::histograms() registry; log-binned integers, so repetition
  // merges are order-independent and --jobs=N output is byte-identical.
  trace::HistogramSnapshot histograms;

  // Flight-recorder time series: one frame per epoch of a recovery or
  // streaming run (empty for engine-level scenarios or when the facility
  // is off).  Repetition timelines merge keyed by sim time
  // (trace::merge_timelines).
  std::vector<trace::FlightFrame> timeline;
};

/// Builds one deployment and runs `config.groups` groups over it.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// The middleware for one scenario run: forks `config.world` when one is
/// attached (PreconditionError unless its config equals
/// middleware_config()), otherwise
/// constructs a fresh deployment from middleware_config().  Shared by
/// run_scenario and the node-runtime harnesses so every path honours
/// snapshot reuse identically.
std::unique_ptr<core::GroupCastMiddleware> make_scenario_middleware(
    const ScenarioConfig& config);

/// Execution policy for run_scenario_grid.
struct GridOptions {
  /// Worker threads; 1 runs inline on the calling thread (no pool), 0 uses
  /// std::thread::hardware_concurrency().  Results are byte-identical for
  /// every value.
  std::size_t jobs = 1;
  /// Seed repetitions per grid point (the paper's "repeated over 10 IP
  /// network topologies"), laddered seed, seed+1, ..., seed+repetitions-1.
  std::size_t repetitions = 1;
  /// Collect protocol counters: each repetition runs against a fresh
  /// registry (presized to its peer count) and the merged snapshots land
  /// in ScenarioResult::counters.  Off by default — the benches then pay
  /// only the disabled one-branch incr().
  bool counters = false;
  /// Collect sim-time histograms per repetition (isolated
  /// trace::HistogramRegistry, merged into ScenarioResult::histograms).
  /// Off by default, one-branch record() cost when off.
  bool histograms = false;
  /// Record a flight-recorder frame per node-runtime epoch (isolated
  /// trace::FlightRecorder, merged into ScenarioResult::timeline).
  /// Off by default; on or off, the run fires the same events.
  bool timeline = false;
};

/// Runs every (point, repetition) work item of the grid — points[i] with
/// seeds points[i].seed + {0, ..., repetitions-1} — on a pool of
/// GridOptions::jobs workers, and returns the per-point reductions in
/// points order.  Deterministic: see the header comment.
std::vector<ScenarioResult> run_scenario_grid(
    std::span<const ScenarioConfig> points, const GridOptions& options = {});

/// Folds repetition results (in seed-ladder order) into one averaged
/// result: metric fields are arithmetic means, except the must-be-0 counts
/// (invariant_violations and epoch_conflicts), which sum, and
/// invariant_violations_max, which keeps the maximum; repair_edges sums, the
/// *_stddev fields are sample stddevs across the repetitions, and counter
/// snapshots merge.  Exposed so callers can reproduce exactly what the
/// grid computes from individual run_scenario results.
ScenarioResult reduce_scenario_repetitions(
    const ScenarioConfig& config, std::span<const ScenarioResult> repetitions);

/// Runs the scenario over `repetitions` seeds (seed, seed+1, ...) on
/// `jobs` workers and averages every field.  Equivalent to a one-point
/// run_scenario_grid, with one addition: counters are collected whenever
/// the caller's ambient registry is enabled, and the merged snapshot is
/// folded back into that registry afterwards (so enable-run-export callers
/// keep working unchanged, sequential or parallel).
ScenarioResult run_scenario_averaged(ScenarioConfig config,
                                     std::size_t repetitions,
                                     std::size_t jobs = 1);

/// Reads a positive scaling factor from the GROUPCAST_BENCH_SCALE
/// environment variable (default 1).  Benches use it to move between the
/// fast default configuration and the paper's full experiment sizes.
double bench_scale();

}  // namespace groupcast::metrics
