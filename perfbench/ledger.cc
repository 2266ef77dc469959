// gc_ledger — runs one benchmark workload for one seed and prints one JSON
// object with the raw measurements.  perfbench/run.py builds and drives it,
// checks the outputs and turns them into the benchmark's metrics.
//
// Untraced mode times (make_snapshot, run_scenario on the forked world) once
// per world, over `deployments` worlds derived from the seed, after running
// a small copy of the first world twice to check determinism.  Traced mode
// runs one untraced repetition as the reference, then builds the same world
// layer by layer through the public calls of net, coords and overlay, forks
// it, and runs the workload again with spans around each layer call and the
// counter and histogram registries enabled.
//
//   gc_ledger --workload=churn_10k --seed=7 --deployments=12 --trace=0
//             [--scale=1] [--spans_out=FILE]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/middleware.h"
#include "metrics/esm_metrics.h"
#include "metrics/experiment.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/bootstrap.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "overlay/population.h"
#include "trace/counters.h"
#include "trace/histogram.h"
#include "util/rng.h"

namespace {

namespace gc = groupcast;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads --------------------------------------------------------------

std::size_t scaled(std::size_t base, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(
                             std::llround(static_cast<double>(base) * scale)));
}

/// The three workloads.  `scale` shrinks peer, subscriber and chunk counts
/// for the smoke test; 1 is the benchmark size.
gc::metrics::ScenarioConfig make_config(const std::string& workload,
                                        std::uint64_t seed, double scale) {
  gc::metrics::ScenarioConfig config;
  config.seed = seed;
  if (workload == "churn_10k") {
    // Half the peers subscribe: with a 10% group the tree size, the
    // advertisement reach and the convergence time swing 3x from one seed
    // to the next, with half they stay within about 15%.
    config.peer_count = scaled(10'000, scale, 400);
    config.groups = 1;
    config.group_size = scaled(5'000, scale, 40);
    config.shards = 4;
    auto& rec = config.recovery;
    rec.enabled = true;
    rec.loss_probability = 0.1;
    rec.crash_fraction = 0.15;
    rec.reliable_data = true;
  } else if (workload == "stream_20k") {
    config.peer_count = scaled(20'000, scale, 400);
    config.groups = 1;
    config.group_size = scaled(1'000, scale, 40);
    auto& str = config.streaming;
    str.enabled = true;
    str.loss_probability = 0.05;
    str.reliable_data = true;
    str.chunks = scaled(100, scale, 20);
    str.chunk_interval_seconds = 0.1;
    str.chunk_bytes = 16 * 1024;
    str.deadline_seconds = 2.0;
    str.uplink_kbps = 4'000.0;
    str.downlink_kbps = 16'000.0;
    str.scale_caps_with_capacity = true;
    str.sources.publishers = 3;
    str.sources.mode =
        gc::metrics::MultiSourceOptions::Mode::kPerSourceTrees;
  } else if (workload == "paper_groups_10k") {
    config.peer_count = scaled(10'000, scale, 400);
    config.groups = 10;
    config.group_size = scaled(1'000, scale, 40);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return config;
}

/// Seed of the i-th deployment of a run: every run covers several worlds,
/// so one unlucky world does not decide its figures.
std::uint64_t world_seed(std::uint64_t seed, std::size_t i) {
  if (seed >= (std::uint64_t{1} << 50)) {
    throw std::invalid_argument("seed must be below 2^50");
  }
  return seed * 1000 + i;
}

enum class Kind { kChurn, kStream, kPaper };

Kind kind_of(const gc::metrics::ScenarioConfig& config) {
  if (config.recovery.enabled) return Kind::kChurn;
  if (config.streaming.enabled) return Kind::kStream;
  return Kind::kPaper;
}

// --- simulated-time outcome of one run --------------------------------------

/// Named figures of one run, in report order.
using Figures = std::vector<std::pair<std::string, double>>;

/// Simulated-time outcomes of one run; deterministic for a world seed.
Figures outcome_of(const gc::metrics::ScenarioResult& r) {
  const auto& config = r.config;
  const double peers = static_cast<double>(config.peer_count);
  const double group_size =
      static_cast<double>(config.effective_group_size());
  Figures out;
  double attempted = 0.0;
  double failed = 0.0;
  switch (kind_of(config)) {
    case Kind::kChurn: {
      // Probe deliveries: every survivor should get every payload.  The
      // harness exposes ratios; the counts are recovered exactly from them.
      const double members =
          std::round(r.subscription_success_rate * group_size);
      const double survivors =
          members - std::floor(config.recovery.crash_fraction * members);
      attempted = survivors *
                  static_cast<double>(config.recovery.speaking_payloads);
      failed = attempted - std::round(r.delivery_ratio * attempted);
      out.emplace_back("delivery", r.delivery_ratio);
      out.emplace_back("reattached", r.reattached_fraction);
      out.emplace_back("violations", r.invariant_violations);
      out.emplace_back("epochs_to_converge", r.epochs_to_converge);
      out.emplace_back("control_overhead", r.control_overhead);
      out.emplace_back("msgs_per_peer", r.subscription_messages / peers);
      break;
    }
    case Kind::kStream: {
      // Eligible (viewer, chunk) pairs = played + missed.
      const double played = std::round(r.chunks_played_per_viewer * group_size);
      attempted = std::round(played / (1.0 - r.chunk_miss_ratio));
      failed = attempted - played;
      out.emplace_back("miss_ratio", r.chunk_miss_ratio);
      out.emplace_back("startup_ms", r.startup_delay_ms);
      out.emplace_back("rebuffers_per_viewer", r.rebuffer_events);
      out.emplace_back("attached", r.subscription_success_rate);
      out.emplace_back("msgs_per_peer", r.subscription_messages / peers);
      break;
    }
    case Kind::kPaper: {
      // Subscriptions.  A rendezvous drawn as its own subscriber is not
      // subscribed, so attempts are at most groups x group_size.
      attempted = static_cast<double>(config.groups) * group_size;
      failed = std::round((1.0 - r.subscription_success_rate) * attempted);
      out.emplace_back("success", r.subscription_success_rate);
      out.emplace_back("receiving_rate", r.receiving_rate);
      out.emplace_back("lookup_ms", r.lookup_latency_ms);
      out.emplace_back("delay_penalty", r.delay_penalty);
      out.emplace_back("link_stress", r.link_stress);
      out.emplace_back("node_stress", r.node_stress);
      out.emplace_back("overload_index", r.overload_index);
      out.emplace_back("advert_msgs_per_group", r.advertisement_messages);
      out.emplace_back("sub_msgs_per_group", r.subscription_messages);
      out.emplace_back(
          "msgs_per_peer",
          (r.advertisement_messages + r.subscription_messages) *
              static_cast<double>(config.groups) / peers);
      break;
    }
  }
  out.emplace_back("attempted", attempted);
  out.emplace_back("failed", failed);
  out.emplace_back("fail_ratio", attempted > 0.0 ? failed / attempted : 0.0);
  out.emplace_back("events", static_cast<double>(r.events_fired));
  out.emplace_back("queue_high_water",
                   static_cast<double>(r.queue_high_water));
  for (std::size_t s = 0; s < r.events_per_shard.size(); ++s) {
    out.emplace_back("events_shard" + std::to_string(s),
                     static_cast<double>(r.events_per_shard[s]));
  }
  return out;
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name;
  int parent;
  double start_s;
  double end_s;
};

/// In-memory span log of the traced run; written out once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, since(origin_), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Ends the innermost open span, which must be `id`.
  double end(int id) {
    open_.pop_back();
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = since(origin_);
    return span.end_s - span.start_s;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; close() ends it early and returns its length in seconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.begin(name)) {}
  ~ScopedSpan() {
    if (!closed_) log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double close() {
    closed_ = true;
    return log_.end(id_);
  }

 private:
  SpanLog& log_;
  int id_;
  bool closed_ = false;
};

// --- JSON output ---------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const Figures& fields) {
  std::string s = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + fields[i].first + "\": " + num(fields[i].second);
  }
  return s + "}";
}

/// A failed correctness check in the ledger itself; main() reports it as
/// "CHECK FAILED" with the workload and the metric.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(std::string metric, const std::string& detail)
      : std::runtime_error(detail), metric_(std::move(metric)) {}
  const std::string& metric() const { return metric_; }

 private:
  std::string metric_;
};

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS mark
/// (VmHWM), so each deployment reports its own peak rather than the largest
/// world's or the allocator's leftovers.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool written = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    throw CheckFailure("peak_rss_mb",
                       "cannot reset the peak RSS through "
                       "/proc/self/clear_refs");
  }
}

/// Peak RSS since the last reset_peak_rss(), MB.  VmHWM is the address
/// space's own mark, which clear_refs resets; getrusage's ru_maxrss would
/// also keep the peak of every exited thread (the ShardSet workers).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    throw CheckFailure("peak_rss_mb", "cannot read /proc/self/status");
  }
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0) {
    throw CheckFailure("peak_rss_mb", "no VmHWM in /proc/self/status");
  }
  return static_cast<double>(kib) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::floor(q * static_cast<double>(v.size()))));
  return v[i];
}

// --- the traced run ------------------------------------------------------------

/// Builds the deployment `config` names layer by layer, in the order of the
/// GroupCastMiddleware constructor, and freezes it as a snapshot a fork can
/// run on.  Returns null when the overlay needed connectivity repair edges
/// (the constructor's private repair step is not replicated here).
std::shared_ptr<gc::core::DeploymentSnapshot> build_layered_world(
    const gc::core::MiddlewareConfig& mw, SpanLog& log, Figures& layers,
    std::vector<double>& join_us) {
  auto snapshot = std::make_shared<gc::core::DeploymentSnapshot>();
  snapshot->config = mw;
  gc::util::Rng rng = gc::util::Rng::for_stream(mw.seed, 0);
  {
    ScopedSpan span(log, "net.underlay");
    snapshot->underlay = std::make_shared<const gc::net::UnderlayTopology>(
        gc::net::generate_transit_stub(
            gc::net::scale_config_for_peers(mw.peer_count,
                                            mw.peers_per_router),
            rng));
    layers.emplace_back("net.underlay_s", span.close());
  }
  {
    ScopedSpan span(log, "net.routing");
    snapshot->routing =
        std::make_shared<const gc::net::IpRouting>(*snapshot->underlay);
    layers.emplace_back("net.routing_s", span.close());
  }
  const double routers =
      static_cast<double>(snapshot->underlay->router_count());
  layers.emplace_back("net.routers", routers);
  // Dense IpRouting tables: a double distance plus a RouterId next hop per
  // router pair.
  layers.emplace_back("net.routing_bytes", 12.0 * routers * routers);
  {
    ScopedSpan span(log, "coords.embed");
    auto population = mw.population;
    population.peer_count = mw.peer_count;
    snapshot->population = std::make_shared<const gc::overlay::PeerPopulation>(
        *snapshot->routing, population, rng);
    const double s = span.close();
    layers.emplace_back("coords.embed_s", s);
    layers.emplace_back("coords.embed_us_per_peer",
                        s * 1e6 / static_cast<double>(mw.peer_count));
  }
  {
    ScopedSpan span(log, "overlay.bootstrap");
    auto graph = std::make_unique<gc::overlay::OverlayGraph>(mw.peer_count);
    auto host_cache = std::make_unique<gc::overlay::HostCacheServer>(
        *snapshot->population, mw.host_cache, rng);
    auto bootstrap = std::make_unique<gc::overlay::GroupCastBootstrap>(
        *snapshot->population, *graph, *host_cache, mw.bootstrap, rng);
    std::vector<gc::overlay::PeerId> order(mw.peer_count);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    join_us.reserve(order.size());
    for (const auto peer : order) {
      ScopedSpan join(log, "overlay.join");
      bootstrap->join(peer);
      join_us.push_back(join.close() * 1e6);
    }
    graph->compact();
    const auto connectivity = graph->connectivity();
    layers.emplace_back("overlay.bootstrap_s", span.close());
    layers.emplace_back("overlay.edges",
                        static_cast<double>(graph->edge_count()));
    layers.emplace_back("overlay.graph_bytes",
                        static_cast<double>(graph->memory_bytes()));
    if (!connectivity.connected || connectivity.isolated_peers != 0) {
      return nullptr;
    }
    snapshot->graph = std::move(graph);
    snapshot->host_cache = std::move(host_cache);
    snapshot->bootstrap = std::move(bootstrap);
  }
  snapshot->rng = rng;
  return snapshot;
}

/// The engine-level pipeline of run_scenario, driven from outside with one
/// span per group establishment and per session evaluation.  Accumulates in
/// run_scenario's order so every figure matches it bit for bit.
gc::metrics::ScenarioResult run_paper_pipeline(
    const gc::metrics::ScenarioConfig& config,
    gc::core::GroupCastMiddleware& middleware, SpanLog& log,
    std::vector<double>& establish_ms, std::vector<double>& session_ms) {
  gc::metrics::ScenarioResult result;
  result.config = config;
  result.repair_edges = middleware.connectivity_repair_edges();
  const std::size_t group_size = config.effective_group_size();
  const double n_groups = static_cast<double>(config.groups);
  for (std::size_t g = 0; g < config.groups; ++g) {
    ScopedSpan establish(log, "core.establish");
    auto group = middleware.establish_random_group(group_size);
    establish_ms.push_back(establish.close() * 1e3);
    result.advertisement_messages +=
        static_cast<double>(group.advert.messages) / n_groups;
    result.subscription_messages +=
        static_cast<double>(group.report.total_messages()) / n_groups;
    result.receiving_rate += group.advert.receiving_rate() / n_groups;
    result.subscription_success_rate +=
        group.report.success_rate() / n_groups;
    result.lookup_latency_ms +=
        group.report.average_response_time_ms() / n_groups;

    ScopedSpan evaluate(log, "core.session");
    const auto session = middleware.session(group);
    const auto esm = gc::metrics::evaluate_session(
        middleware.population(), session, group.advert.rendezvous);
    session_ms.push_back(evaluate.close() * 1e3);
    result.delay_penalty += esm.delay_penalty / n_groups;
    result.link_stress += esm.link_stress / n_groups;
    result.node_stress += esm.node_stress / n_groups;
    result.overload_index += esm.overload_index / n_groups;
    result.avg_tree_depth +=
        static_cast<double>(group.tree.max_depth()) / n_groups;
    result.avg_tree_nodes +=
        static_cast<double>(group.tree.node_count()) / n_groups;
  }
  result.events_fired = middleware.simulator().events_fired();
  result.queue_high_water = middleware.simulator().queue_high_water();
  return result;
}

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double rss_mb = 0.0;
  Figures outcome;
};

/// Reference figures of a constructed world, for the layered-build check.
struct WorldCounts {
  std::size_t routers = 0;
  std::size_t edges = 0;
  std::size_t repair_edges = 0;
};

Rep untraced_rep(const gc::metrics::ScenarioConfig& config,
                 WorldCounts* counts = nullptr) {
  Rep rep;
  reset_peak_rss();
  const auto t0 = Clock::now();
  auto world =
      gc::core::GroupCastMiddleware::make_snapshot(config.middleware_config());
  rep.setup_s = since(t0);
  if (counts != nullptr) {
    *counts = {world->underlay->router_count(), world->graph->edge_count(),
               world->repair_edges};
  }
  auto run_config = config;
  run_config.world = std::move(world);
  const auto t1 = Clock::now();
  const auto result = gc::metrics::run_scenario(run_config);
  rep.run_s = since(t1);
  rep.rss_mb = peak_rss_mb();
  rep.outcome = outcome_of(result);
  return rep;
}

std::string rep_json(const Rep& rep) {
  return "{\"setup_s\": " + num(rep.setup_s) + ", \"run_s\": " +
         num(rep.run_s) + ", \"rss_mb\": " + num(rep.rss_mb) +
         ", \"outcome\": " + object(rep.outcome) + "}";
}

double counter(const gc::trace::CounterSnapshot& c, gc::trace::CounterId id) {
  return static_cast<double>(c.total(id));
}

std::string self_times_json(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  Figures self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double v = spans[i].end_s - spans[i].start_s - child_s[i];
    auto it = std::find_if(self.begin(), self.end(), [&](const auto& kv) {
      return kv.first == spans[i].name;
    });
    if (it == self.end()) {
      self.emplace_back(spans[i].name, v);
    } else {
      it->second += v;
    }
  }
  return object(self);
}

void write_spans(const std::string& path, const std::string& run_id,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"run\": \"%s\", \"id\": %zu, \"parent\": %d, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 run_id.c_str(), i, s.parent, s.name, s.start_s * 1e6,
                 s.end_s * 1e6);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + path);
}

/// Traced mode, on the run's first world: a reference repetition without
/// tracing, then the traced one.
std::string traced(const gc::metrics::ScenarioConfig& config,
                   const std::string& run_id, const std::string& spans_out) {
  WorldCounts ref;
  const Rep reference = untraced_rep(config, &ref);

  reset_peak_rss();  // start from the same heap state as the reference
  SpanLog log(Clock::now());
  Figures layers;
  std::vector<double> join_us;
  std::shared_ptr<gc::core::DeploymentSnapshot> world;
  double traced_setup_s = 0.0;
  {
    ScopedSpan setup(log, "setup");
    world = build_layered_world(config.middleware_config(), log, layers,
                                join_us);
    traced_setup_s = setup.close();
  }
  const bool layered_world_used = world != nullptr;
  if (!layered_world_used) {
    // The overlay needed repair edges only the constructor adds; run on a
    // constructed world instead.  Each repair adds two directed edges.
    world = std::const_pointer_cast<gc::core::DeploymentSnapshot>(
        gc::core::GroupCastMiddleware::make_snapshot(
            config.middleware_config()));
  }
  const auto find = [&](const char* name) {
    for (const auto& kv : layers) {
      if (kv.first == name) return kv.second;
    }
    return 0.0;
  };
  layers.emplace_back("overlay.join_us_p50", quantile(join_us, 0.5));
  layers.emplace_back("overlay.join_us_p99", quantile(join_us, 0.99));

  gc::trace::CounterRegistry counters;
  gc::trace::HistogramRegistry histograms;
  std::vector<double> establish_ms, session_ms;
  gc::metrics::ScenarioResult result;
  double traced_run_s = 0.0;
  double fork_s = 0.0;
  {
    ScopedSpan run(log, "run");
    std::unique_ptr<gc::core::GroupCastMiddleware> middleware;
    {
      ScopedSpan fork(log, "core.fork");
      middleware = std::make_unique<gc::core::GroupCastMiddleware>(world);
      fork_s = fork.close();
    }
    counters.enable(config.peer_count);
    histograms.enable();
    gc::trace::ScopedCounterRegistry counter_guard(counters);
    gc::trace::ScopedHistogramRegistry histogram_guard(histograms);
    if (kind_of(config) == Kind::kPaper) {
      result = run_paper_pipeline(config, *middleware, log, establish_ms,
                                  session_ms);
    } else {
      // The harness forks the world itself; the fork above is timed alone.
      middleware.reset();
      auto run_config = config;
      run_config.world = world;
      ScopedSpan harness(log, "core.run");
      result = gc::metrics::run_scenario(run_config);
    }
    counters.disable();
    histograms.disable();
    traced_run_s = run.close();
  }
  if (!spans_out.empty()) write_spans(spans_out, run_id, log.spans());

  const auto snap = counters.snapshot();
  const auto hist = histograms.snapshot();
  using C = gc::trace::CounterId;
  using H = gc::trace::HistogramId;
  const auto pct = [&](H id, double p) {
    return static_cast<double>(hist.of(id).percentile(p));
  };
  layers.emplace_back("core.fork_s", fork_s);
  layers.emplace_back("core.establish_ms_p50", quantile(establish_ms, 0.5));
  layers.emplace_back(
      "core.establish_ms_max",
      establish_ms.empty()
          ? 0.0
          : *std::max_element(establish_ms.begin(), establish_ms.end()));
  layers.emplace_back("core.establish_count",
                      static_cast<double>(establish_ms.size()));
  layers.emplace_back("core.session_ms_p50", quantile(session_ms, 0.5));
  layers.emplace_back("core.advert_msgs_per_group",
                      kind_of(config) == Kind::kPaper
                          ? result.advertisement_messages
                          : 0.0);
  layers.emplace_back("core.sub_msgs_per_group",
                      kind_of(config) == Kind::kPaper
                          ? result.subscription_messages
                          : 0.0);
  const double hits = counter(snap, C::kUtilityCacheHits);
  const double misses = counter(snap, C::kUtilityCacheMisses);
  layers.emplace_back("core.utility_cache_hit_ratio",
                      hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  layers.emplace_back("core.utility_cache_lookups", hits + misses);
  layers.emplace_back("core.msgs_sent", counter(snap, C::kMessagesSent));
  layers.emplace_back("core.heartbeats", counter(snap, C::kHeartbeats));
  layers.emplace_back("core.timers_coalesced",
                      counter(snap, C::kTimersCoalesced));
  layers.emplace_back("core.control_retries",
                      counter(snap, C::kControlRetries));
  layers.emplace_back("core.control_giveups",
                      counter(snap, C::kControlGiveups));
  layers.emplace_back("core.nacks", counter(snap, C::kNacksSent));
  layers.emplace_back("core.retransmits", counter(snap, C::kRetransmits));
  layers.emplace_back("core.dups_suppressed",
                      counter(snap, C::kDupsSuppressed));
  layers.emplace_back("core.backup_attaches",
                      counter(snap, C::kBackupAttaches));
  layers.emplace_back("core.nack_repair_us_p50", pct(H::kNackRepairUs, 0.5));
  layers.emplace_back("core.nack_repair_us_p99", pct(H::kNackRepairUs, 0.99));
  layers.emplace_back("core.edge_delay_us_p50", pct(H::kEdgeDelayUs, 0.5));
  layers.emplace_back("core.edge_delay_us_p99", pct(H::kEdgeDelayUs, 0.99));
  layers.emplace_back("net.flow_blocked", counter(snap, C::kFlowBlocked));
  layers.emplace_back("core.chunks_late", counter(snap, C::kChunksLate));
  layers.emplace_back("core.chunk_slack_us_p50", pct(H::kChunkSlackUs, 0.5));
  layers.emplace_back("core.startup_us_p99", pct(H::kStartupDelayUs, 0.99));

  const double events = static_cast<double>(result.events_fired);
  layers.emplace_back("sim.events", events);
  layers.emplace_back("sim.events_per_s",
                      reference.run_s > 0.0 ? events / reference.run_s : 0.0);
  layers.emplace_back("sim.queue_high_water",
                      static_cast<double>(result.queue_high_water));
  double shard_max = events, shard_min = events;
  if (!result.events_per_shard.empty()) {
    const auto [lo, hi] = std::minmax_element(result.events_per_shard.begin(),
                                              result.events_per_shard.end());
    shard_min = static_cast<double>(*lo);
    shard_max = static_cast<double>(*hi);
  }
  layers.emplace_back("sim.shard_imbalance",
                      shard_min > 0.0 ? shard_max / shard_min : 0.0);
  layers.emplace_back("sim.events_per_shard_max", shard_max);
  layers.emplace_back("trace.setup_overhead_s",
                      traced_setup_s - reference.setup_s);
  layers.emplace_back("trace.run_overhead_s", traced_run_s - reference.run_s);

  std::string out = "{\"mode\": \"traced\"";
  out += ", \"reference\": " + rep_json(reference);
  out += ", \"traced\": {\"setup_s\": " + num(traced_setup_s) +
         ", \"run_s\": " + num(traced_run_s) +
         ", \"outcome\": " + object(outcome_of(result)) + "}";
  out += ", \"world_check\": {\"layered_world_used\": " +
         std::string(layered_world_used ? "true" : "false") +
         ", \"routers\": " + num(find("net.routers")) +
         ", \"ref_routers\": " + num(static_cast<double>(ref.routers)) +
         ", \"edges\": " + num(find("overlay.edges")) +
         ", \"ref_edges\": " + num(static_cast<double>(ref.edges)) +
         ", \"ref_repair_edges\": " +
         num(static_cast<double>(ref.repair_edges)) + "}";
  out += ", \"layers\": " + object(layers);
  out += ", \"self_s\": " + self_times_json(log.spans());
  out += ", \"spans\": " + num(static_cast<double>(log.spans().size())) + "}";
  return out;
}

/// Untraced mode: one timed repetition per world, after a determinism probe
/// that runs a tenth-size copy of world 0 twice.
std::string untraced(const std::string& workload, std::uint64_t seed,
                     double scale, std::size_t deployments) {
  const auto probe = make_config(workload, world_seed(seed, 0), scale * 0.1);
  std::string out = "{\"mode\": \"untraced\", \"probe\": [" +
                    rep_json(untraced_rep(probe)) + ", " +
                    rep_json(untraced_rep(probe)) + "], \"reps\": [";
  for (std::size_t i = 0; i < deployments; ++i) {
    if (i) out += ", ";
    out += rep_json(
        untraced_rep(make_config(workload, world_seed(seed, i), scale)));
  }
  return out + "]}";
}

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = flag_value(argc, argv, "workload", "");
  try {
    const auto seed = std::stoull(flag_value(argc, argv, "seed", "7"));
    const auto deployments = static_cast<std::size_t>(
        std::stoul(flag_value(argc, argv, "deployments", "3")));
    const bool trace = flag_value(argc, argv, "trace", "0") == "1";
    const double scale = std::stod(flag_value(argc, argv, "scale", "1"));
    const std::string spans_out = flag_value(argc, argv, "spans_out", "");
    const std::string out =
        trace ? traced(make_config(workload, world_seed(seed, 0), scale),
                       workload + "/" + std::to_string(seed) + "/traced",
                       spans_out)
              : untraced(workload, seed, scale, deployments);
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "CHECK FAILED workload=%s metric=%s: %s\n",
                 workload.c_str(), e.metric().c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gc_ledger: %s\n", e.what());
    return 1;
  }
}
