#include "metrics/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/wire.h"
#include "metrics/harness_common.h"
#include "metrics/recovery.h"
#include "metrics/streaming.h"
#include "trace/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/stats.h"

namespace groupcast::metrics {

std::size_t ScenarioConfig::effective_group_size() const {
  if (group_size > 0) return std::min(group_size, peer_count);
  return std::max<std::size_t>(16, peer_count / 10);
}

core::MiddlewareConfig ScenarioConfig::middleware_config() const {
  core::MiddlewareConfig mw;
  mw.peer_count = peer_count;
  mw.seed = seed;
  mw.overlay = overlay;
  mw.advertisement.scheme = scheme;
  mw.advertisement.forward_fraction = forward_fraction;
  mw.advertisement.ttl = advertisement_ttl;
  mw.subscription.ripple_ttl = ripple_ttl;
  return mw;
}

std::unique_ptr<core::GroupCastMiddleware> make_scenario_middleware(
    const ScenarioConfig& config) {
  if (config.world == nullptr) {
    return std::make_unique<core::GroupCastMiddleware>(
        config.middleware_config());
  }
  GC_REQUIRE_MSG(config.world->config == config.middleware_config(),
                 "attached deployment snapshot does not match the scenario");
  return std::make_unique<core::GroupCastMiddleware>(config.world);
}

void validate(const ScenarioConfig& config) {
  GC_REQUIRE(config.groups >= 1);
  const RecoveryOptions& rec = config.recovery;
  const StreamingOptions& str = config.streaming;
  GC_REQUIRE_MSG(!(rec.enabled && str.enabled),
                 "recovery and streaming harnesses are mutually exclusive");
  if (!rec.enabled && !str.enabled) {
    GC_REQUIRE_MSG(config.shards <= 1,
                   "shards > 1 requires a node-runtime harness (recovery "
                   "or streaming); engine-level scenarios run on the "
                   "single wheel");
    return;
  }
  // The fields both node-runtime harnesses share, named after the one
  // that runs.
  const RuntimeOptions& runtime =
      rec.enabled ? static_cast<const RuntimeOptions&>(rec) : str;
  const std::string name = rec.enabled ? "recovery" : "streaming";
  GC_REQUIRE_MSG(
      runtime.loss_probability >= 0.0 && runtime.loss_probability <= 1.0,
      name + ".loss_probability must be in [0, 1]");
  GC_REQUIRE_MSG(!runtime.flow_control || runtime.reliable_data,
                 name + ".flow_control requires reliable_data");
  GC_REQUIRE_MSG(config.shards <= config.peer_count,
                 "config.shards must not exceed peer_count");
  if (rec.enabled) {
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
    return;
  }
  GC_REQUIRE_MSG(str.chunks >= 1, "streaming.chunks must be >= 1");
  GC_REQUIRE_MSG(str.chunk_interval_seconds > 0.0,
                 "streaming.chunk_interval_seconds must be > 0");
  GC_REQUIRE_MSG(str.chunk_bytes >= 1 &&
                     str.chunk_bytes <= core::kMaxChunkBytes,
                 "streaming.chunk_bytes must be in [1, 16 MiB]");
  GC_REQUIRE_MSG(str.deadline_seconds > 0.0,
                 "streaming.deadline_seconds must be > 0");
  GC_REQUIRE_MSG(str.uplink_kbps >= 0.0 && str.downlink_kbps >= 0.0,
                 "streaming bandwidth caps must be non-negative");
  GC_REQUIRE_MSG(str.sources.publishers >= 1,
                 "streaming.sources.publishers must be >= 1");
  GC_REQUIRE_MSG(str.flash_crowd_seconds > 0.0,
                 "streaming.flash_crowd_seconds must be > 0");
  GC_REQUIRE_MSG(str.sources.publishers + 1 < config.peer_count,
                 "streaming needs peers beyond the publishers");
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  validate(config);
  if (config.recovery.enabled) return run_recovery_scenario(config);
  if (config.streaming.enabled) return run_streaming_scenario(config);
  ScenarioResult result;
  result.config = config;
  result.config.shards = detail::resolve_shards(config);

  const auto middleware_ptr = make_scenario_middleware(config);
  core::GroupCastMiddleware& middleware = *middleware_ptr;
  result.repair_edges = middleware.connectivity_repair_edges();

  const std::size_t group_size = config.effective_group_size();
  const double n_groups = static_cast<double>(config.groups);

  util::Summary delay_by_group, overload_by_group, link_by_group,
      lookup_by_group;
  for (std::size_t g = 0; g < config.groups; ++g) {
    auto group = middleware.establish_random_group(group_size);

    result.advertisement_messages +=
        static_cast<double>(group.advert.messages) / n_groups;
    result.subscription_messages +=
        static_cast<double>(group.report.total_messages()) / n_groups;
    result.receiving_rate += group.advert.receiving_rate() / n_groups;
    result.subscription_success_rate +=
        group.report.success_rate() / n_groups;
    const double lookup_ms = group.report.average_response_time_ms();
    result.lookup_latency_ms += lookup_ms / n_groups;
    lookup_by_group.add(lookup_ms);

    const auto session = middleware.session(group);
    const auto esm = evaluate_session(middleware.population(), session,
                                      group.advert.rendezvous);
    result.delay_penalty += esm.delay_penalty / n_groups;
    result.link_stress += esm.link_stress / n_groups;
    result.node_stress += esm.node_stress / n_groups;
    result.overload_index += esm.overload_index / n_groups;
    delay_by_group.add(esm.delay_penalty);
    overload_by_group.add(esm.overload_index);
    link_by_group.add(esm.link_stress);

    result.avg_tree_depth +=
        static_cast<double>(group.tree.max_depth()) / n_groups;
    result.avg_tree_nodes +=
        static_cast<double>(group.tree.node_count()) / n_groups;
  }
  result.delay_penalty_group_stddev = delay_by_group.stddev();
  result.overload_index_group_stddev = overload_by_group.stddev();
  result.link_stress_group_stddev = link_by_group.stddev();
  result.lookup_latency_group_stddev = lookup_by_group.stddev();
  result.events_fired = middleware.simulator().events_fired();
  result.queue_high_water = middleware.simulator().queue_high_water();
  if (trace::counters().enabled()) {
    result.counters = trace::counters().snapshot();
  }
  if (trace::histograms().enabled()) {
    result.histograms = trace::histograms().snapshot();
  }
  return result;
}

namespace {

/// One (point, repetition) work item.  The repetition runs against
/// isolated trace facilities injected for exactly this call — workers
/// never touch another thread's (or the caller's) registries, and the
/// snapshots stored in the result cover exactly this run.
ScenarioResult run_repetition(const ScenarioConfig& rep,
                              const GridOptions& options) {
  trace::CounterRegistry local_counters;
  if (options.counters) local_counters.enable(rep.peer_count);
  trace::ScopedCounterRegistry counter_guard(local_counters);
  trace::HistogramRegistry local_histograms;
  if (options.histograms) local_histograms.enable();
  trace::ScopedHistogramRegistry histogram_guard(local_histograms);
  trace::FlightRecorder local_recorder;
  if (options.timeline) local_recorder.enable();
  trace::ScopedFlightRecorder recorder_guard(local_recorder);
  return run_scenario(rep);
}

/// True when two work items construct bit-identical deployments and can
/// fork one shared snapshot.
bool same_world(const ScenarioConfig& a, const ScenarioConfig& b) {
  return a.middleware_config() == b.middleware_config();
}

/// Deduplicates world construction across work items: every cluster of
/// two or more items with the same middleware config gets one
/// DeploymentSnapshot (built here, serially, before the pool starts) that
/// each run shares instead of rebuilding underlay + embedding + bootstrap.
/// Items whose world is unique keep building it inside their own pool
/// task, so those builds run in parallel rather than here one after the
/// other, and items arriving with a caller-attached world keep it.  A run
/// on a shared world is bit-identical to a fresh construction, so results
/// do not depend on what shares with what.
void attach_shared_worlds(std::vector<ScenarioConfig>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].world != nullptr) continue;
    bool shared = false;
    for (std::size_t j = i + 1; j < items.size() && !shared; ++j) {
      shared = items[j].world == nullptr && same_world(items[i], items[j]);
    }
    if (!shared) continue;
    const auto world = core::GroupCastMiddleware::make_snapshot(
        items[i].middleware_config());
    for (std::size_t j = i; j < items.size(); ++j) {
      if (items[j].world == nullptr && same_world(items[i], items[j])) {
        items[j].world = world;
      }
    }
  }
}

}  // namespace

ScenarioResult reduce_scenario_repetitions(
    const ScenarioConfig& config,
    std::span<const ScenarioResult> repetitions) {
  GC_REQUIRE(!repetitions.empty());
  ScenarioResult total;
  total.config = config;
  // The shard count that ran; every repetition of a point resolves
  // config.shards alike (same peer count, same kind of thread).
  total.config.shards = repetitions.front().config.shards;
  const double k = static_cast<double>(repetitions.size());
  util::Summary delay_samples, overload_samples, link_samples;
  util::Summary delivery_samples, reattach_samples, miss_samples;
  for (const ScenarioResult& one : repetitions) {
    delay_samples.add(one.delay_penalty);
    overload_samples.add(one.overload_index);
    link_samples.add(one.link_stress);
    delivery_samples.add(one.delivery_ratio);
    reattach_samples.add(one.reattached_fraction);
    miss_samples.add(one.chunk_miss_ratio);
    total.advertisement_messages += one.advertisement_messages / k;
    total.subscription_messages += one.subscription_messages / k;
    total.messages_by_kind += one.messages_by_kind;
    total.messages_by_type += one.messages_by_type;
    total.receiving_rate += one.receiving_rate / k;
    total.subscription_success_rate += one.subscription_success_rate / k;
    total.lookup_latency_ms += one.lookup_latency_ms / k;
    total.delay_penalty += one.delay_penalty / k;
    total.link_stress += one.link_stress / k;
    total.node_stress += one.node_stress / k;
    total.overload_index += one.overload_index / k;
    total.delivery_ratio += one.delivery_ratio / k;
    total.reattached_fraction += one.reattached_fraction / k;
    total.mean_orphan_epochs += one.mean_orphan_epochs / k;
    total.epochs_to_converge += one.epochs_to_converge / k;
    total.control_overhead += one.control_overhead / k;
    total.invariant_violations += one.invariant_violations;
    total.invariant_violations_max = std::max(
        total.invariant_violations_max, one.invariant_violations_max);
    for (const auto& sample : one.violation_samples) {
      if (total.violation_samples.size() == kViolationSamples) break;
      total.violation_samples.push_back(sample);
    }
    total.partition_majority_delivery += one.partition_majority_delivery / k;
    total.partition_minority_delivery += one.partition_minority_delivery / k;
    total.lease_handoffs += one.lease_handoffs / k;
    total.epoch_conflicts += one.epoch_conflicts;
    total.chunk_miss_ratio += one.chunk_miss_ratio / k;
    total.startup_delay_ms += one.startup_delay_ms / k;
    total.rebuffer_events += one.rebuffer_events / k;
    total.chunks_played_per_viewer += one.chunks_played_per_viewer / k;
    total.flash_attach_fraction += one.flash_attach_fraction / k;
    total.avg_tree_depth += one.avg_tree_depth / k;
    total.avg_tree_nodes += one.avg_tree_nodes / k;
    total.repair_edges += one.repair_edges;
    total.events_fired += one.events_fired;
    total.queue_high_water = std::max(total.queue_high_water,
                                      one.queue_high_water);
    if (total.events_per_shard.size() < one.events_per_shard.size()) {
      total.events_per_shard.resize(one.events_per_shard.size(), 0);
    }
    for (std::size_t s = 0; s < one.events_per_shard.size(); ++s) {
      total.events_per_shard[s] += one.events_per_shard[s];
    }
    total.shard_epochs += one.shard_epochs;
    if (one.lookahead_us > 0 &&
        (total.lookahead_us == 0 || one.lookahead_us < total.lookahead_us)) {
      total.lookahead_us = one.lookahead_us;
    }
    total.delay_penalty_group_stddev += one.delay_penalty_group_stddev / k;
    total.overload_index_group_stddev +=
        one.overload_index_group_stddev / k;
    total.link_stress_group_stddev += one.link_stress_group_stddev / k;
    total.lookup_latency_group_stddev +=
        one.lookup_latency_group_stddev / k;
    total.counters.merge(one.counters);
    total.histograms.merge(one.histograms);
    trace::merge_timelines(total.timeline, one.timeline);
  }
  total.delay_penalty_stddev = delay_samples.stddev();
  total.overload_index_stddev = overload_samples.stddev();
  total.link_stress_stddev = link_samples.stddev();
  if (config.recovery.enabled) {
    total.delivery_ratio_stddev = delivery_samples.stddev();
    total.reattached_fraction_stddev = reattach_samples.stddev();
  }
  if (config.streaming.enabled) {
    total.chunk_miss_ratio_stddev = miss_samples.stddev();
  }
  return total;
}

std::vector<ScenarioResult> run_scenario_grid(
    std::span<const ScenarioConfig> points, const GridOptions& options) {
  GC_REQUIRE(options.repetitions >= 1);
  if (points.empty()) return {};

  const std::size_t reps = options.repetitions;
  const std::size_t items = points.size() * reps;
  std::vector<ScenarioResult> runs(items);

  // Work item i = repetition (i % reps) of point (i / reps), so one
  // slow point spreads over the pool instead of serializing at the end.
  // Items are materialized up front so deployment construction can be
  // shared: grid cells that differ only in run-phase parameters (loss,
  // churn, group count, ...) fork one pre-built world.
  std::vector<ScenarioConfig> item_configs(items);
  for (std::size_t i = 0; i < items; ++i) {
    item_configs[i] = points[i / reps];
    item_configs[i].seed += i % reps;  // the seed ladder: seed, seed+1, ...
  }
  attach_shared_worlds(item_configs);

  // Every result slot is written by exactly one work item.
  util::parallel_for(
      items, 1,
      [&](std::size_t i) {
        runs[i] = run_repetition(item_configs[i], options);
      },
      options.jobs);

  std::vector<ScenarioResult> reduced;
  reduced.reserve(points.size());
  const std::span<const ScenarioResult> all(runs);
  for (std::size_t p = 0; p < points.size(); ++p) {
    reduced.push_back(
        reduce_scenario_repetitions(points[p], all.subspan(p * reps, reps)));
  }
  return reduced;
}

ScenarioResult run_scenario_averaged(ScenarioConfig config,
                                     std::size_t repetitions,
                                     std::size_t jobs) {
  GC_REQUIRE(repetitions >= 1);
  GridOptions options;
  options.jobs = jobs;
  options.repetitions = repetitions;
  options.counters = trace::counters().enabled();
  options.histograms = trace::histograms().enabled();
  options.timeline = trace::flight_recorder().enabled();
  auto reduced =
      run_scenario_grid(std::span<const ScenarioConfig>(&config, 1), options);
  // Fold the isolated per-repetition facilities back into the caller's
  // registries (no-ops while disabled): enable-run-export callers like
  // sim_driver --trace_out observe the same accumulated values the
  // pre-pool sequential harness produced.
  trace::counters().merge(reduced.front().counters);
  trace::histograms().merge(reduced.front().histograms);
  trace::flight_recorder().merge(reduced.front().timeline);
  return reduced.front();
}

double bench_scale() {
  const char* raw = std::getenv("GROUPCAST_BENCH_SCALE");
  if (raw == nullptr) return 1.0;
  const double value = std::atof(raw);
  return value > 0.0 ? value : 1.0;
}

}  // namespace groupcast::metrics
