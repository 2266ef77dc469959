#include "metrics/harness_common.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "sim/time.h"
#include "trace/counters.h"
#include "trace/flight_recorder.h"
#include "trace/histogram.h"
#include "trace/trace.h"
#include "util/parallel.h"

namespace groupcast::metrics::detail {

/// Per-shard trace facilities: worker threads resolve trace::counters() /
/// trace::histograms() thread-locally, so each shard gets its own
/// registry (installed on the worker via exec_on_shards) and the
/// snapshots merge into the caller's registry at the end — integer sums,
/// hence shard-count invariant.
struct ShardTrace {
  trace::CounterRegistry counters;
  trace::HistogramRegistry histograms;
  std::unique_ptr<trace::ScopedCounterRegistry> counter_guard;
  std::unique_ptr<trace::ScopedHistogramRegistry> histogram_guard;
};

namespace {

core::TransportOptions with_loss(core::TransportOptions options,
                                 double loss_probability) {
  options.loss_probability = loss_probability;
  return options;
}

/// Installs one ShardTrace per shard (empty when the caller collects
/// nothing): each shard's thread gets isolated registries so the run's
/// samples never contend and merge deterministically.
std::vector<std::unique_ptr<ShardTrace>> install_shard_trace(
    sim::ShardSet& engine, std::size_t peer_count) {
  std::vector<std::unique_ptr<ShardTrace>> shard_trace;
  if (!trace::counters().enabled() && !trace::histograms().enabled()) {
    return shard_trace;
  }
  for (std::size_t i = 0; i < engine.num_shards(); ++i) {
    auto per_shard = std::make_unique<ShardTrace>();
    if (trace::counters().enabled()) {
      per_shard->counters.enable(peer_count);
    }
    if (trace::histograms().enabled()) per_shard->histograms.enable();
    shard_trace.push_back(std::move(per_shard));
  }
  engine.exec_on_shards([&](std::size_t i) {
    shard_trace[i]->counter_guard =
        std::make_unique<trace::ScopedCounterRegistry>(
            shard_trace[i]->counters);
    shard_trace[i]->histogram_guard =
        std::make_unique<trace::ScopedHistogramRegistry>(
            shard_trace[i]->histograms);
  });
  return shard_trace;
}

/// Parks the workers' registries and folds the per-shard snapshots into
/// the caller's (merge is a no-op while the caller's are disabled).
void fold_shard_trace(sim::ShardSet& engine,
                      std::vector<std::unique_ptr<ShardTrace>>& shard_trace) {
  if (shard_trace.empty()) return;
  engine.exec_on_shards([&](std::size_t i) {
    shard_trace[i]->histogram_guard.reset();
    shard_trace[i]->counter_guard.reset();
  });
  for (const auto& per_shard : shard_trace) {
    trace::counters().merge(per_shard->counters.snapshot());
    trace::histograms().merge(per_shard->histograms.snapshot());
  }
}

/// Tree-edge heartbeat period of every harness node.
constexpr sim::SimTime kHeartbeatInterval = sim::SimTime::seconds(0.5);
/// Heartbeat intervals without hearing from a parent before it is
/// declared dead.  The node default (2, the paper's two-miss rule) is
/// tuned for a quiet network; under steady loss p a one-way beat survives
/// with 1-p, so k silent intervals in a row have probability p^k on a
/// quiet edge, and the harnesses widen the window to keep the
/// false-positive rate negligible at the sweeps' loss levels (p^6 = 1e-6
/// per window at p = 0.1).
constexpr std::size_t kHeartbeatMisses = 6;

ScenarioConfig with_resolved_shards(ScenarioConfig config) {
  config.shards = resolve_shards(config);
  return config;
}

core::NodeOptions map_node_options(const ScenarioConfig& config,
                                   const RuntimeOptions& runtime) {
  core::NodeOptions options;
  options.advertisement = config.middleware_config().advertisement;
  options.ripple_ttl = config.ripple_ttl;
  options.heartbeat_interval = kHeartbeatInterval;
  options.missed_heartbeats_to_fail = kHeartbeatMisses;
  options.reliability.enabled = runtime.reliable_data;
  options.reliability.flow_control = runtime.flow_control;
  options.adaptive = runtime.adaptive;
  return options;
}

}  // namespace

std::size_t resolve_shards(const ScenarioConfig& config) {
  if (!config.recovery.enabled && !config.streaming.enabled) return 1;
  if (config.shards != 0) return config.shards;
  if (trace::tracer().enabled() || util::in_parallel_worker()) return 1;
  if (config.peer_count < 2 * kPeersPerShard) return 1;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

NodeRuntime::NodeRuntime(const ScenarioConfig& config,
                         const RuntimeOptions& runtime,
                         core::TransportOptions transport_options,
                         const NodeTuner& tune)
    : config_(with_resolved_shards(config)),
      middleware_(make_scenario_middleware(config_)),
      rng_(middleware_->rng().split()),
      partition_(core::partition_shards(middleware_->population(),
                                        config_.shards)),
      engine_(config_.shards, partition_.lookahead_us),
      transport_(engine_, middleware_->population(), partition_.peer_shard,
                 with_loss(transport_options, runtime.loss_probability),
                 rng_),
      shard_peers_(config_.shards),
      want_(config.peer_count, 0) {
  // Shard threads resolve the trace facilities thread-locally; give each
  // shard its own registries whenever the caller collects anything, and
  // fold the snapshots back in before the result captures them.  At one
  // shard that includes the calling thread, so keep the caller's own.
  caller_counters_ = &trace::counters();
  caller_histograms_ = &trace::histograms();
  shard_trace_ = install_shard_trace(engine_, config.peer_count);

  for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
    shard_peers_[shard_of(p)].push_back(p);
  }
  const core::NodeOptions node_options = map_node_options(config, runtime);
  // Nodes read their options through a shared pointer: one copy per
  // distinct set (a tuner makes one or two), not one per node.
  std::vector<std::shared_ptr<const core::NodeOptions>> option_sets;
  nodes_.reserve(config.peer_count);
  for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
    auto per_node = node_options;
    if (tune) tune(p, per_node);
    auto shared = std::find_if(
        option_sets.begin(), option_sets.end(),
        [&per_node](const auto& set) { return *set == per_node; });
    if (shared == option_sets.end()) {
      option_sets.push_back(
          std::make_shared<const core::NodeOptions>(std::move(per_node)));
      shared = option_sets.end() - 1;
    }
    nodes_.push_back(std::make_unique<core::GroupCastNode>(
        p, transport_, middleware_->graph(), *shared, rng_));
    nodes_.back()->start();
  }
  capture_frame();
}

NodeRuntime::~NodeRuntime() {
  engine_.exec_on_shards([this](std::size_t i) {
    for (const auto p : shard_peers_[i]) nodes_[p].reset();
  });
}

void NodeRuntime::on_shards(std::span<const overlay::PeerId> peers,
                            const std::function<void(overlay::PeerId)>& fn) {
  engine_.exec_on_shards([&](std::size_t i) {
    for (const auto p : peers) {
      if (shard_of(p) == i) fn(p);
    }
  });
}

core::TreeView NodeRuntime::tree_view(core::GroupId group) {
  core::TreeView view(nodes_.size());
  // Each shard appends its peers' children, in its peer order, to its own
  // buffer; the caller then lays the buffers out in PeerId order.
  std::vector<std::vector<overlay::PeerId>> shard_children(
      engine_.num_shards());
  engine_.exec_on_shards([&](std::size_t i) {
    for (const auto p : shard_peers_[i]) {
      core::fill_tree_row(view, p, nodes_[p].get(), group, shard_children[i]);
    }
  });
  std::partial_sum(view.child_begin.begin(), view.child_begin.end(),
                   view.child_begin.begin());
  view.children.resize(view.child_begin.back());
  for (std::size_t i = 0; i < shard_children.size(); ++i) {
    auto from = shard_children[i].begin();
    for (const auto p : shard_peers_[i]) {
      const auto count = view.child_begin[p + 1] - view.child_begin[p];
      std::copy_n(from, count, view.children.begin() + view.child_begin[p]);
      from += count;
    }
  }
  return view;
}

void NodeRuntime::advance(sim::SimTime by) {
  clock_ = clock_ + by;
  if (!trace::flight_recorder().enabled()) {
    engine_.run_until(clock_);
    return;
  }
  // One frame at every epoch boundary in (now, clock_], taken after every
  // event of that instant has fired.
  const std::int64_t epoch = kEpoch.as_micros();
  for (std::int64_t t = (engine_.now().as_micros() / epoch + 1) * epoch;
       t <= clock_.as_micros(); t += epoch) {
    engine_.run_until(sim::SimTime::micros(t));
    capture_frame();
  }
  if (engine_.now() < clock_) engine_.run_until(clock_);
}

void NodeRuntime::capture_frame() {
  if (!trace::flight_recorder().enabled()) return;
  trace::FlightFrame frame;
  frame.t_us = engine_.now().as_micros();
  // What the calling thread records lands in the caller's registries at
  // N >= 2 shards and in shard 0's at one shard, so the sum over both is
  // the same at every shard count.  The workers are parked between
  // run_until calls, so their registries are safe to read here.
  frame.add(*caller_counters_, *caller_histograms_);
  for (const auto& per_shard : shard_trace_) {
    frame.add(per_shard->counters, per_shard->histograms);
  }
  trace::flight_recorder().capture(frame);
}

void NodeRuntime::arm_subscriber(overlay::PeerId peer) {
  want_[peer] = 1;
  nodes_[peer]->on_subscribe_result(
      [this, peer](core::GroupId group, bool success) {
        if (!success && want_[peer] != 0) resubscribe_later(peer, group);
      });
}

void NodeRuntime::resubscribe_later(overlay::PeerId peer,
                                    core::GroupId group) {
  auto& node_sim = transport_.simulator_for(peer);
  node_sim.schedule_at(node_sim.now() + kEpoch, [this, peer, group] {
    auto& node = *nodes_[peer];
    if (want_[peer] != 0 && node.running() && !node.is_subscribed(group)) {
      node.subscribe(group);
    }
  });
}

std::vector<overlay::PeerId> NodeRuntime::pick_peers(
    std::size_t count, std::span<const overlay::PeerId> excluded) {
  std::vector<overlay::PeerId> picked;
  const std::size_t draw = std::min(count + excluded.size(), nodes_.size());
  for (const auto idx : rng_.sample_indices(nodes_.size(), draw)) {
    if (picked.size() == count) break;
    const auto p = static_cast<overlay::PeerId>(idx);
    if (std::find(excluded.begin(), excluded.end(), p) == excluded.end()) {
      picked.push_back(p);
    }
  }
  return picked;
}

void NodeRuntime::join(std::span<const overlay::PeerId> peers,
                       std::span<const core::GroupId> groups) {
  for (const auto p : peers) arm_subscriber(p);
  on_shards(peers, [&](overlay::PeerId p) {
    for (const auto g : groups) nodes_[p]->subscribe(g);
  });
}

void NodeRuntime::subscribe(std::span<const overlay::PeerId> peers,
                            std::span<const core::GroupId> groups) {
  join(peers, groups);
  for (std::size_t e = 0; e < kConvergenceEpochs; ++e) {
    advance(kEpoch);
    const bool settled =
        std::all_of(peers.begin(), peers.end(), [&](overlay::PeerId p) {
          return std::none_of(groups.begin(), groups.end(),
                              [&](core::GroupId g) {
                                return nodes_[p]->exchange_pending(g);
                              });
        });
    if (settled) break;
  }
}

std::vector<overlay::PeerId> NodeRuntime::attached(
    std::span<const overlay::PeerId> peers,
    std::span<const core::GroupId> groups) const {
  std::vector<overlay::PeerId> on_every_tree;
  for (const auto p : peers) {
    const auto& node = *nodes_[p];
    if (std::all_of(groups.begin(), groups.end(), [&](core::GroupId g) {
          return node.is_subscribed(g) && node.on_tree(g);
        })) {
      on_every_tree.push_back(p);
    }
  }
  return on_every_tree;
}

void NodeRuntime::finish(ScenarioResult& result) {
  if (trace::flight_recorder().enabled()) {
    // A final frame, so the timeline ends at the settled end state even
    // when the run stops between epoch boundaries.
    capture_frame();
    result.timeline = trace::flight_recorder().frames();
  }
  result.config = config_;
  result.repair_edges = middleware_->connectivity_repair_edges();
  result.subscription_messages =
      static_cast<double>(transport_.messages_sent());
  result.messages_by_kind = transport_.stats();
  result.messages_by_type = transport_.type_stats();
  result.events_fired = engine_.events_fired();
  result.queue_high_water = engine_.queue_high_water();
  result.events_per_shard = engine_.events_per_shard();
  result.shard_epochs = engine_.epochs();
  result.lookahead_us = partition_.lookahead_us == sim::kUnboundedLookahead
                            ? 0
                            : partition_.lookahead_us;
  fold_shard_trace(engine_, shard_trace_);
  if (trace::counters().enabled()) {
    result.counters = trace::counters().snapshot();
  }
  if (trace::histograms().enabled()) {
    result.histograms = trace::histograms().snapshot();
  }
}

}  // namespace groupcast::metrics::detail
