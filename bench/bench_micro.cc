// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// utility evaluation, weighted sampling, the event queue, Dijkstra routing
// construction, the bootstrap join, SSA announcement and the tree-invariant
// checker.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_report.h"

#include "baselines/chord.h"
#include "core/advertisement.h"
#include "core/invariants.h"
#include "core/middleware.h"
#include "core/node.h"
#include "core/transport.h"
#include "core/utility.h"
#include "core/wire.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"
#include "trace/cli.h"
#include "trace/counters.h"
#include "util/rng.h"

namespace {

using namespace groupcast;

void BM_UtilityEvaluation(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<core::Candidate> list;
  for (int i = 0; i < state.range(0); ++i) {
    list.push_back(core::Candidate{rng.uniform(1.0, 1000.0),
                                   rng.uniform(1.0, 400.0)});
  }
  for (auto _ : state) {
    auto prefs = core::selection_preferences(0.5, list);
    benchmark::DoNotOptimize(prefs);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UtilityEvaluation)->Arg(8)->Arg(64)->Arg(1024);

void BM_WeightedSample(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<double> weights;
  for (int i = 0; i < state.range(0); ++i) weights.push_back(rng.uniform());
  for (auto _ : state) {
    auto picks = core::weighted_sample_without_replacement(weights, 8, rng);
    benchmark::DoNotOptimize(picks);
  }
}
BENCHMARK(BM_WeightedSample)->Arg(64)->Arg(1024);

void BM_EventQueue(benchmark::State& state) {
  util::Rng rng(3);
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < state.range(0); ++i) {
      simulator.schedule(sim::SimTime::millis(rng.uniform(0.0, 1000.0)),
                         [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

void BM_RoutingConstruction(benchmark::State& state) {
  util::Rng rng(4);
  net::TransitStubConfig config;
  config.stub_domains_per_transit_router =
      static_cast<std::uint32_t>(state.range(0));
  const auto topo = net::generate_transit_stub(config, rng);
  for (auto _ : state) {
    net::IpRouting routing(topo);
    benchmark::DoNotOptimize(routing.distance_ms(0, 1));
  }
  state.counters["routers"] = static_cast<double>(topo.router_count());
}
BENCHMARK(BM_RoutingConstruction)->Arg(2)->Arg(4);

void BM_BootstrapJoinOverlay(benchmark::State& state) {
  // Cost of building a whole GroupCast overlay of N peers.
  for (auto _ : state) {
    core::MiddlewareConfig config;
    config.peer_count = static_cast<std::size_t>(state.range(0));
    config.seed = 5;
    core::GroupCastMiddleware middleware(config);
    benchmark::DoNotOptimize(middleware.graph().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 5000 peers fill the 1000-entry host cache, so most joins scan it whole;
// 20000 is stream_20k's world, where the GNP fits are largest.
BENCHMARK(BM_BootstrapJoinOverlay)
    ->Unit(benchmark::kMillisecond)
    ->Arg(500)
    ->Arg(5000)
    ->Arg(20000);

void BM_SsaAnnouncement(benchmark::State& state) {
  core::MiddlewareConfig config;
  config.peer_count = static_cast<std::size_t>(state.range(0));
  config.seed = 6;
  core::GroupCastMiddleware middleware(config);
  core::AdvertisementEngine engine(middleware.simulator(),
                                   middleware.population(),
                                   middleware.graph(),
                                   config.advertisement, middleware.rng());
  for (auto _ : state) {
    auto adv = engine.announce(0);
    benchmark::DoNotOptimize(adv.messages);
  }
}
BENCHMARK(BM_SsaAnnouncement)->Unit(benchmark::kMillisecond)->Arg(1000);

void BM_WireRoundTrip(benchmark::State& state) {
  const core::MessageBody body = core::DataMsg{7, 42, 0xABCDEF};
  for (auto _ : state) {
    const auto bytes = core::encode_message(body);
    auto decoded = core::decode_message(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WireRoundTrip);

void BM_ChordRoute(benchmark::State& state) {
  core::MiddlewareConfig config;
  config.peer_count = static_cast<std::size_t>(state.range(0));
  config.seed = 7;
  core::GroupCastMiddleware middleware(config);
  baselines::ChordRing ring(middleware.population());
  util::Rng rng(8);
  for (auto _ : state) {
    const auto from = static_cast<overlay::PeerId>(
        rng.uniform_index(config.peer_count));
    auto path = ring.route(from, rng());
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_ChordRoute)->Arg(1000);

// The tree-invariant checker on a synthetic N-peer tree, each peer joined
// under a uniformly drawn earlier one and every other peer a subscriber.
// One iteration fills a TreeView (rows, then CSR children in join order)
// from the parent links and checks it, so the cost tracked is the view
// build plus the three passes of check_tree_invariants.
void BM_TreeInvariants(benchmark::State& state) {
  const auto n = static_cast<overlay::PeerId>(state.range(0));
  util::Rng rng(9);
  std::vector<overlay::PeerId> parent(n, 0);
  for (overlay::PeerId p = 1; p < n; ++p) {
    parent[p] = static_cast<overlay::PeerId>(rng.uniform_index(p));
  }
  std::vector<overlay::PeerId> subscribers;
  for (overlay::PeerId p = 1; p < n; p += 2) subscribers.push_back(p);
  for (auto _ : state) {
    core::TreeView view(n);
    for (overlay::PeerId p = 0; p < n; ++p) {
      view.live[p] = 1;
      view.member[p] = 1;
      view.parent[p] = parent[p];
      if (p != 0) ++view.child_begin[parent[p] + 1];
    }
    std::partial_sum(view.child_begin.begin(), view.child_begin.end(),
                     view.child_begin.begin());
    view.children.resize(view.child_begin.back());
    std::vector<std::uint32_t> next(view.child_begin.begin(),
                                    view.child_begin.end() - 1);
    for (overlay::PeerId p = 1; p < n; ++p) {
      view.children[next[parent[p]]++] = p;
    }
    const auto report = core::check_tree_invariants(view, 0, subscribers);
    if (!report.ok()) {
      state.SkipWithError("synthetic tree reported a violation");
      break;
    }
    benchmark::DoNotOptimize(report.reachable_subscribers);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeInvariants)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(10000)
    ->Arg(100000);

// Fixed event-loop throughput probe behind --json_out: schedules `count`
// events with randomized timestamps (a mix of the closure and the
// fixed-signature timer paths, ~1/16 cancelled) and drains them, wall-clock
// timed.  Deterministic workload, so runs of the same binary measure the
// same thing and scripts/check.sh can compare events/sec across builds.
struct ProbeStats {
  std::size_t fired = 0;
  std::size_t peak_queue_depth = 0;
  double seconds = 0.0;
  double events_per_second = 0.0;
};

ProbeStats probe_event_loop(std::size_t count) {
  util::Rng rng(99);
  sim::Simulator simulator;
  std::uint64_t consumed = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto when = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.uniform_index(1000000)));
    if ((i & 1) == 0) {
      const auto handle = simulator.schedule_timer_at(
          when,
          [](void* context, std::uint64_t arg) {
            *static_cast<std::uint64_t*>(context) += arg;
          },
          &consumed, i);
      if ((i & 15) == 0) simulator.cancel(handle);
    } else {
      simulator.schedule_at(when, [] {});
    }
  }
  ProbeStats stats;
  stats.fired = simulator.run();
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.peak_queue_depth = simulator.queue_high_water();
  stats.events_per_second =
      stats.seconds > 0.0 ? static_cast<double>(stats.fired) / stats.seconds
                          : 0.0;
  benchmark::DoNotOptimize(consumed);
  return stats;
}

/// The fastest of `passes` passes of `count` events, one Simulator per
/// pass: scheduler noise only ever slows a pass down, so best-of is the
/// right throughput estimator, and the first pass doubles as the warm-up.
/// The passes run on a thread of their own: glibc serves it from a malloc
/// arena that keeps a pass's freed slab for the next pass, where the main
/// arena hands it back to the kernel and every pass pays its first-touch
/// page faults again, the part of a pass that swung most with the host's
/// load (docs/PERFORMANCE.md, "The perf-smoke gate").
ProbeStats fastest_of(std::size_t count, int passes) {
  ProbeStats best;
  std::thread([&best, count, passes] {
    for (int pass = 0; pass < passes; ++pass) {
      const auto stats = probe_event_loop(count);
      if (stats.events_per_second > best.events_per_second) best = stats;
    }
  }).join();
  return best;
}

// Sharded flavour of the probe, active behind --shards=N (N >= 2): the
// same deterministic workload split round-robin across the shard wheels
// of a ShardSet with no cross-shard traffic, so the number isolates the
// kernel's barrier + per-wheel drain cost from Transport merge costs.
struct ShardedProbeStats {
  std::size_t fired = 0;
  double seconds = 0.0;
  double events_per_second = 0.0;
  double events_per_second_per_shard = 0.0;
  double imbalance = 0.0;  // max/min events per shard (1.0 = even)
};

/// No cross-shard traffic: the probe measures the bare kernel.
class NullShardClient : public groupcast::sim::ShardSet::Client {
 public:
  void merge_inbound(std::size_t) override {}
};

ShardedProbeStats probe_sharded_event_loop(std::size_t shards,
                                           std::size_t count) {
  util::Rng rng(99);
  sim::ShardSet set(shards, /*lookahead_us=*/1000);
  NullShardClient client;
  set.set_client(&client);
  std::atomic<std::uint64_t> consumed{0};  // timers fire on worker threads
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto when = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.uniform_index(1000000)));
    auto& wheel = set.shard(i % shards);
    if ((i & 1) == 0) {
      const auto handle = wheel.schedule_timer_at(
          when,
          [](void* context, std::uint64_t arg) {
            static_cast<std::atomic<std::uint64_t>*>(context)->fetch_add(
                arg, std::memory_order_relaxed);
          },
          &consumed, i);
      if ((i & 15) == 0) wheel.cancel(handle);
    } else {
      wheel.schedule_at(when, [] {});
    }
  }
  set.run_until(sim::SimTime::seconds(2));
  ShardedProbeStats stats;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.fired = set.events_fired();
  stats.events_per_second =
      stats.seconds > 0.0 ? static_cast<double>(stats.fired) / stats.seconds
                          : 0.0;
  stats.events_per_second_per_shard =
      stats.events_per_second / static_cast<double>(shards);
  const auto per_shard = set.events_per_shard();
  const auto [min_it, max_it] =
      std::minmax_element(per_shard.begin(), per_shard.end());
  stats.imbalance = *min_it > 0 ? static_cast<double>(*max_it) /
                                      static_cast<double>(*min_it)
                                : 0.0;
  benchmark::DoNotOptimize(consumed);
  return stats;
}

// Memory-footprint gauge (kBytesPerPeer): builds a small deterministic
// node-runtime deployment (overlay + transport + one established group
// with active subscribers), lets it settle, then sums the self-reported
// retained state — per-node runtime structures, transport slots, timer
// wheel, overlay adjacency — and divides by the peer count.  Everything
// is measured through explicit memory_bytes() accessors (capacity-based,
// deterministic for a fixed seed), not allocator hooks, so the number is
// stable across runs and platforms of the same pointer width.
struct FootprintStats {
  std::size_t peers = 0;
  std::size_t node_bytes = 0;       // sum of GroupCastNode::memory_bytes()
  std::size_t transport_bytes = 0;  // per-peer tables/in-flight slots
  std::size_t timer_bytes = 0;      // simulator wheel + overflow capacity
  std::size_t graph_bytes = 0;      // overlay adjacency arena + spans
  std::size_t bytes_per_peer = 0;   // total / peers
  // The world under the runtime, reported next to bytes_per_peer (which
  // keeps its pinned definition): IP routing tables, peer records and the
  // overlay adjacency, per peer.
  std::size_t routing_bytes = 0;
  std::size_t population_bytes = 0;
  std::size_t world_bytes_per_peer = 0;
};

FootprintStats probe_memory_footprint() {
  FootprintStats stats;
  core::MiddlewareConfig config;
  config.peer_count = 500;
  config.seed = 11;
  core::GroupCastMiddleware middleware(config);
  auto& simulator = middleware.simulator();
  util::Rng rng = middleware.rng().split();

  core::Transport transport(simulator, middleware.population(),
                            core::TransportOptions{}, rng);
  core::NodeOptions node_options;
  node_options.advertisement = config.advertisement;
  node_options.reliability.enabled = true;
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes;
  nodes.reserve(config.peer_count);
  for (overlay::PeerId p = 0; p < config.peer_count; ++p) {
    nodes.push_back(std::make_unique<core::GroupCastNode>(
        p, transport, middleware.graph(), node_options, rng));
    nodes.back()->start();
  }

  // One group, every 10th peer subscribed, a short speaking round: enough
  // traffic to populate the dedup sets, send buffers and timer wheel the
  // way a steady-state run does.
  constexpr core::GroupId kGroup = 1;
  const overlay::PeerId rendezvous = middleware.pick_rendezvous();
  nodes[rendezvous]->create_group(kGroup);
  simulator.run_until(simulator.now() + sim::SimTime::seconds(4));
  for (overlay::PeerId p = 0; p < config.peer_count; p += 10) {
    if (p != rendezvous) nodes[p]->subscribe(kGroup);
  }
  simulator.run_until(simulator.now() + sim::SimTime::seconds(8));
  for (std::uint64_t payload = 1; payload <= 8; ++payload) {
    nodes[rendezvous]->publish(kGroup, payload);
  }
  simulator.run_until(simulator.now() + sim::SimTime::seconds(4));

  stats.peers = config.peer_count;
  for (const auto& node : nodes) stats.node_bytes += node->memory_bytes();
  stats.transport_bytes = transport.memory_bytes();
  stats.timer_bytes = simulator.memory_bytes();
  stats.graph_bytes = middleware.graph().memory_bytes();
  const std::size_t total = stats.node_bytes + stats.transport_bytes +
                            stats.timer_bytes + stats.graph_bytes;
  stats.bytes_per_peer = total / stats.peers;
  stats.routing_bytes = middleware.routing().memory_bytes();
  stats.population_bytes = middleware.population().memory_bytes();
  stats.world_bytes_per_peer =
      (stats.routing_bytes + stats.population_bytes + stats.graph_bytes) /
      stats.peers;
  // Export through the counter plane too, so --trace_out captures carry
  // the gauge (no-op when tracing is off).
  trace::counters().incr(trace::kNoNode, trace::CounterId::kBytesPerPeer,
                         stats.bytes_per_peer);
  return stats;
}

void write_micro_json(const std::string& path, std::size_t shards) {
  bench::JsonReport report("micro");
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t events = 0;
  double best_rate = 0.0;
  // (events, passes) per cell.  The cache-resident 100k size is the
  // fastest, so its cell sets the root rate that scripts/perf_gate.cmake
  // compares; a hundred passes of it (about 1.3 s) outlast the phases in
  // which a busy neighbour slows the core.  The larger sizes are reported,
  // not gated.
  constexpr std::pair<std::size_t, int> kCells[] = {
      {100000, 100}, {1000000, 2}, {2000000, 2}};
  for (const auto& [count, passes] : kCells) {
    const auto stats = fastest_of(count, passes);
    events += stats.fired;
    best_rate = std::max(best_rate, stats.events_per_second);
    report.add_cell()
        .integer("scheduled", count)
        .integer("events_fired", stats.fired)
        .integer("peak_queue_depth", stats.peak_queue_depth)
        .number("wall_clock_seconds", stats.seconds)
        .number("events_per_second", stats.events_per_second);
  }
  ShardedProbeStats sharded;
  if (shards > 1) {
    // Sharded-kernel runs only: absent cells/fields keep --shards=1
    // reports byte-identical to pre-shard builds.
    auto stats = probe_sharded_event_loop(shards, 2000000);
    const auto again = probe_sharded_event_loop(shards, 2000000);
    if (again.events_per_second > stats.events_per_second) stats = again;
    sharded = stats;
    report.add_cell()
        .text("probe", "sharded_event_loop")
        .integer("shards", shards)
        .integer("scheduled", 2000000)
        .integer("events_fired", sharded.fired)
        .number("wall_clock_seconds", sharded.seconds)
        .number("events_per_second", sharded.events_per_second)
        .number("events_per_second_per_shard",
                sharded.events_per_second_per_shard)
        .number("shard_imbalance", sharded.imbalance);
  }
  const auto footprint = probe_memory_footprint();
  report.add_cell()
      .text("probe", "memory_footprint")
      .integer("peers", footprint.peers)
      .integer("node_bytes", footprint.node_bytes)
      .integer("transport_bytes", footprint.transport_bytes)
      .integer("timer_bytes", footprint.timer_bytes)
      .integer("graph_bytes", footprint.graph_bytes)
      .integer("bytes_per_peer", footprint.bytes_per_peer)
      .integer("routing_bytes", footprint.routing_bytes)
      .integer("population_bytes", footprint.population_bytes)
      .integer("world_bytes_per_peer", footprint.world_bytes_per_peer);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The smoke gate in scripts/check.sh reads the root events_per_second;
  // best-of-sizes keeps it stable against one slow size on a noisy box.
  report.root()
      .number("wall_clock_seconds", wall_seconds)
      .integer("events_fired", events)
      .number("events_per_second", best_rate)
      .integer("bytes_per_peer", footprint.bytes_per_peer)
      .integer("world_bytes_per_peer", footprint.world_bytes_per_peer);
  if (shards > 1) {
    report.root()
        .integer("shards", shards)
        .number("events_per_second_per_shard",
                sharded.events_per_second_per_shard)
        .number("shard_imbalance", sharded.imbalance);
  }
  report.write_file(path);
}

}  // namespace

// Custom main: google-benchmark rejects flags it does not know, so
// --trace_out=<path>, --json_out=<path> and --shards=<n> are peeled off
// argv before Initialize sees them.
int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  std::size_t shards = 1;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kTracePrefix = "--trace_out=";
    constexpr const char* kJsonPrefix = "--json_out=";
    constexpr const char* kShardsPrefix = "--shards=";
    if (arg.rfind(kTracePrefix, 0) == 0) {
      trace_path = arg.substr(std::string(kTracePrefix).size());
      continue;
    }
    if (arg.rfind(kJsonPrefix, 0) == 0) {
      json_path = arg.substr(std::string(kJsonPrefix).size());
      continue;
    }
    if (arg.rfind(kShardsPrefix, 0) == 0) {
      shards = static_cast<std::size_t>(std::strtoull(
          arg.c_str() + std::string(kShardsPrefix).size(), nullptr, 10));
      if (shards == 0) {
        std::fprintf(stderr, "%s: --shards must be >= 1\n", argv[0]);
        return 2;
      }
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  // Same thread-confinement rule as the other binaries: a sharded run has
  // no single totally-ordered event stream for the JSONL sink to record.
  if (!trace_path.empty() && shards != 1) {
    std::fprintf(stderr,
                 "%s: --trace_out requires --shards=1 (a sharded run has no "
                 "single totally-ordered event stream to trace).\n",
                 argv[0]);
    return 2;
  }
  const groupcast::trace::CliTracing tracing(trace_path);

  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_micro_json(json_path, shards);
  return 0;
}
