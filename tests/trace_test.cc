// Tests for the tracing subsystem: sinks, counters, JSONL round-trips,
// simulator instrumentation, and end-to-end determinism of seeded runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "metrics/experiment.h"
#include "sim/simulator.h"
#include "trace/counters.h"
#include "trace/sink.h"
#include "trace/trace.h"

namespace groupcast::trace {
namespace {

/// Leaves the global tracer/counters/histograms exactly as found: detached,
/// disabled, zeroed.  Every test in this file runs inside one.
class GlobalTraceGuard {
 public:
  GlobalTraceGuard() { reset(); }
  ~GlobalTraceGuard() { reset(); }

 private:
  static void reset() {
    tracer().set_sink(nullptr);
    counters().disable();
    counters().reset();
    histograms().disable();
    histograms().reset();
    flight_recorder().disable();
    flight_recorder().reset();
  }
};

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(RingBufferSink, KeepsMostRecentOnWraparound) {
  GlobalTraceGuard guard;
  RingBufferSink ring(3);
  for (std::int64_t i = 0; i < 5; ++i) {
    ring.record(TraceEvent{i, EventKind::kSimEvent, 0, kNoNode, 0});
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_us, 2);  // oldest surviving
  EXPECT_EQ(events[1].t_us, 3);
  EXPECT_EQ(events[2].t_us, 4);

  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(RingBufferSink, BelowCapacityReturnsInOrder) {
  RingBufferSink ring(8);
  ring.record(TraceEvent{1, EventKind::kPeerJoin, 7, kNoNode, 2});
  ring.record(TraceEvent{2, EventKind::kPeerLeave, 7, kNoNode, 0});
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kPeerJoin);
  EXPECT_EQ(events[1].kind, EventKind::kPeerLeave);
}

TEST(Jsonl, RoundTripsEveryEventKind) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kCount_);
       ++k) {
    const TraceEvent event{123456, static_cast<EventKind>(k), 42, 7, 99};
    const auto line = to_jsonl(event);
    const auto parsed = parse_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(*parsed, event) << line;
  }
}

TEST(Jsonl, RoundTripsNoNodeAsMinusOne) {
  const TraceEvent event{0, EventKind::kMaintenanceEpoch, kNoNode, kNoNode,
                         3};
  const auto line = to_jsonl(event);
  EXPECT_NE(line.find("\"node\":-1"), std::string::npos) << line;
  const auto parsed = parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->node, kNoNode);
  EXPECT_EQ(parsed->peer, kNoNode);
}

TEST(Jsonl, RejectsMalformedLines) {
  EXPECT_FALSE(parse_jsonl("").has_value());
  EXPECT_FALSE(parse_jsonl("not json").has_value());
  EXPECT_FALSE(parse_jsonl("{\"t_us\":1}").has_value());
  EXPECT_FALSE(
      parse_jsonl(
          R"({"t_us":1,"kind":"bogus","node":0,"peer":0,"value":0})")
          .has_value());
}

TEST(Jsonl, FileSinkRoundTrip) {
  GlobalTraceGuard guard;
  const auto path = temp_path("trace_roundtrip.jsonl");
  {
    JsonlFileSink sink(path);
    sink.record(TraceEvent{10, EventKind::kAdvertForwarded, 1, 2, 6});
    sink.record(TraceEvent{20, EventKind::kMessageDropped, 3, 4,
                           static_cast<std::uint64_t>(DropReason::kLoss)});
    EXPECT_EQ(sink.recorded(), 2u);
  }
  std::size_t malformed = 0;
  const auto events = read_jsonl_file(path, &malformed);
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].t_us, 10);
  EXPECT_EQ((*events)[1].kind, EventKind::kMessageDropped);
  std::remove(path.c_str());
}

TEST(Jsonl, ReaderSkipsAndCountsMalformedLines) {
  const auto path = temp_path("trace_malformed.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(TraceEvent{1, EventKind::kPeerJoin, 0, kNoNode, 0})
        << "\ngarbage line\n"
        << to_jsonl(TraceEvent{2, EventKind::kPeerLeave, 0, kNoNode, 0})
        << "\n";
  }
  std::size_t malformed = 0;
  const auto events = read_jsonl_file(path, &malformed);
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(events->size(), 2u);
  EXPECT_EQ(malformed, 1u);
  std::remove(path.c_str());
}

TEST(CounterRegistry, DisabledIncrIsNoOp) {
  GlobalTraceGuard guard;
  counters().incr(3, CounterId::kMessagesSent);
  EXPECT_EQ(counters().total(CounterId::kMessagesSent), 0u);
  EXPECT_EQ(counters().node_count(), 0u);
}

TEST(CounterRegistry, SnapshotAndResetSemantics) {
  GlobalTraceGuard guard;
  counters().enable(4);
  counters().incr(1, CounterId::kMessagesSent, 5);
  counters().incr(3, CounterId::kMessagesSent, 2);
  counters().incr(3, CounterId::kTreeEdges);
  counters().incr(kNoNode, CounterId::kMessagesDropped);  // totals only

  const auto snap = counters().snapshot();
  EXPECT_EQ(snap.total(CounterId::kMessagesSent), 7u);
  EXPECT_EQ(snap.total(CounterId::kMessagesDropped), 1u);
  EXPECT_EQ(snap.of(1, CounterId::kMessagesSent), 5u);
  EXPECT_EQ(snap.of(3, CounterId::kMessagesSent), 2u);
  EXPECT_EQ(snap.of(3, CounterId::kTreeEdges), 1u);
  EXPECT_EQ(snap.of(99, CounterId::kMessagesSent), 0u);  // out of range

  counters().reset();
  EXPECT_TRUE(counters().enabled());  // reset keeps the enabled state
  EXPECT_EQ(counters().total(CounterId::kMessagesSent), 0u);
  // The snapshot is an independent copy.
  EXPECT_EQ(snap.total(CounterId::kMessagesSent), 7u);

  counters().incr(0, CounterId::kJoins);
  EXPECT_EQ(counters().total(CounterId::kJoins), 1u);
}

TEST(CounterRegistry, ScopedRegistryRedirectsAndRestores) {
  GlobalTraceGuard guard;
  counters().enable(2);
  CounterRegistry local;
  local.enable(2);
  {
    ScopedCounterRegistry scoped(local);
    EXPECT_EQ(&counters(), &local);
    counters().incr(0, CounterId::kMessagesSent, 4);
  }
  // Increments landed in the injected registry, not the default one.
  EXPECT_EQ(local.total(CounterId::kMessagesSent), 4u);
  EXPECT_EQ(counters().total(CounterId::kMessagesSent), 0u);
  EXPECT_NE(&counters(), &local);
}

TEST(CounterRegistry, ScopedRegistriesNest) {
  GlobalTraceGuard guard;
  CounterRegistry outer, inner;
  outer.enable(1);
  inner.enable(1);
  ScopedCounterRegistry scope_outer(outer);
  counters().incr(0, CounterId::kJoins);
  {
    ScopedCounterRegistry scope_inner(inner);
    counters().incr(0, CounterId::kJoins);
  }
  counters().incr(0, CounterId::kJoins);
  EXPECT_EQ(outer.total(CounterId::kJoins), 2u);
  EXPECT_EQ(inner.total(CounterId::kJoins), 1u);
}

TEST(CounterRegistry, ActiveRegistryIsPerThread) {
  GlobalTraceGuard guard;
  CounterRegistry main_local;
  main_local.enable(1);
  ScopedCounterRegistry scoped(main_local);
  // A worker thread sees its own default registry, not the one injected
  // on the main thread; its increments never touch main_local.
  bool worker_saw_injected = true;
  std::thread worker([&] {
    worker_saw_injected = (&counters() == &main_local);
    counters().incr(0, CounterId::kLeaves);  // disabled default: no-op
  });
  worker.join();
  EXPECT_FALSE(worker_saw_injected);
  EXPECT_EQ(main_local.total(CounterId::kLeaves), 0u);
}

TEST(CounterSnapshot, MergeIsElementWiseAndGrows) {
  CounterSnapshot a, b;
  a.totals[0] = 3;
  a.per_node.resize(1);
  a.per_node[0][0] = 3;
  b.totals[0] = 4;
  b.totals[1] = 7;
  b.per_node.resize(3);
  b.per_node[2][1] = 7;
  a.merge(b);
  EXPECT_EQ(a.totals[0], 7u);
  EXPECT_EQ(a.totals[1], 7u);
  ASSERT_EQ(a.per_node.size(), 3u);
  EXPECT_EQ(a.per_node[0][0], 3u);
  EXPECT_EQ(a.per_node[2][1], 7u);
}

TEST(CounterSnapshot, MergeOrderDoesNotMatter) {
  CounterSnapshot x, y;
  x.totals[2] = 5;
  x.per_node.resize(2);
  x.per_node[1][2] = 5;
  y.totals[2] = 9;
  y.per_node.resize(1);
  y.per_node[0][2] = 9;
  CounterSnapshot xy = x, yx = y;
  xy.merge(y);
  yx.merge(x);
  EXPECT_TRUE(xy == yx);
}

TEST(CounterRegistry, MergeFoldsSnapshotUnlessDisabled) {
  CounterRegistry registry;
  CounterSnapshot snap;
  snap.totals[0] = 6;
  snap.per_node.resize(1);
  snap.per_node[0][0] = 6;
  registry.merge(snap);  // disabled: dropped
  EXPECT_EQ(registry.total(static_cast<CounterId>(0)), 0u);
  registry.enable(1);
  registry.incr(0, static_cast<CounterId>(0), 2);
  registry.merge(snap);
  EXPECT_EQ(registry.total(static_cast<CounterId>(0)), 8u);
  EXPECT_EQ(registry.of(0, static_cast<CounterId>(0)), 8u);
}

TEST(CounterSnapshot, TopNodesRanksAndSkipsZeros) {
  CounterSnapshot snap;
  snap.per_node.resize(5);
  snap.per_node[0][0] = 3;
  snap.per_node[2][0] = 9;
  snap.per_node[4][0] = 3;
  const auto top = snap.top_nodes(static_cast<CounterId>(0), 10);
  ASSERT_EQ(top.size(), 3u);  // zero rows skipped
  EXPECT_EQ(top[0], (std::pair<NodeId, std::uint64_t>{2, 9}));
  EXPECT_EQ(top[1], (std::pair<NodeId, std::uint64_t>{0, 3}));  // tie: lower id
  EXPECT_EQ(top[2], (std::pair<NodeId, std::uint64_t>{4, 3}));
}

TEST(CounterSnapshot, TotalsDelta) {
  CounterSnapshot base, next;
  base.totals[0] = 10;
  next.totals[0] = 15;
  next.totals[1] = 4;
  const auto delta = next.totals_delta(base);
  EXPECT_EQ(delta[0], 5);
  EXPECT_EQ(delta[1], 4);
}

TEST(Tracer, EmitCounterSnapshotExportsNonZeroPairsThenTotals) {
  GlobalTraceGuard guard;
  RingBufferSink ring(64);
  tracer().set_sink(&ring);
  counters().enable(2);
  counters().incr(1, CounterId::kMessagesSent, 3);
  emit_counter_snapshot(77);

  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  // Per-node row first, then the totals row with node == kNoNode.
  EXPECT_EQ(events[0].node, 1u);
  EXPECT_EQ(events[0].peer,
            static_cast<NodeId>(CounterId::kMessagesSent));
  EXPECT_EQ(events[0].value, 3u);
  EXPECT_EQ(events[1].node, kNoNode);
  EXPECT_EQ(events[1].value, 3u);
  EXPECT_EQ(events[1].t_us, 77);
}

TEST(Tracer, DisabledEmitReachesNoSink) {
  GlobalTraceGuard guard;
  RingBufferSink ring(4);
  // Not installed: emit must be inert.
  tracer().emit(1, EventKind::kSimEvent, 0);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_FALSE(tracer().enabled());
}

TEST(SimulatorTracing, EmitsSimEventsAndTracksHighWater) {
  GlobalTraceGuard guard;
  RingBufferSink ring(64);
  tracer().set_sink(&ring);

  sim::Simulator simulator;
  int fired = 0;
  simulator.schedule(sim::SimTime::millis(2), [&] { ++fired; });
  simulator.schedule(sim::SimTime::millis(1), [&] { ++fired; });
  simulator.run();

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.events_fired(), 2u);
  EXPECT_EQ(simulator.queue_high_water(), 2u);

  std::size_t sim_events = 0, lag_events = 0;
  for (const auto& e : ring.events()) {
    if (e.kind == EventKind::kSimEvent) ++sim_events;
    if (e.kind == EventKind::kEventLoopLag) ++lag_events;
  }
  EXPECT_EQ(sim_events, 2u);
  EXPECT_GE(lag_events, 1u);  // the high-water mark advanced at least once
}

metrics::ScenarioConfig small_scenario() {
  metrics::ScenarioConfig config;
  config.peer_count = 200;
  config.groups = 2;
  config.seed = 17;
  return config;
}

TEST(Determinism, SeededRunsProduceIdenticalEventsAndCounters) {
  GlobalTraceGuard guard;

  auto run_once = [](std::vector<TraceEvent>& events,
                     CounterSnapshot& snap) {
    RingBufferSink ring(1 << 16);
    tracer().set_sink(&ring);
    counters().enable(200);
    (void)metrics::run_scenario(small_scenario());
    events = ring.events();
    snap = counters().snapshot();
    tracer().set_sink(nullptr);
    counters().disable();
    counters().reset();
  };

  std::vector<TraceEvent> first, second;
  CounterSnapshot snap_first, snap_second;
  run_once(first, snap_first);
  run_once(second, snap_second);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(snap_first.totals, snap_second.totals);
  EXPECT_EQ(snap_first.per_node, snap_second.per_node);
}

TEST(Determinism, SeededRunsProduceByteIdenticalJsonlFiles) {
  GlobalTraceGuard guard;

  auto run_once = [](const std::string& path) {
    {
      ScopedSink sink(std::make_unique<JsonlFileSink>(path));
      counters().enable(200);
      (void)metrics::run_scenario(small_scenario());
      emit_counter_snapshot();
    }
    counters().disable();
    counters().reset();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  };

  const auto a = run_once(temp_path("trace_det_a.jsonl"));
  const auto b = run_once(temp_path("trace_det_b.jsonl"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(temp_path("trace_det_a.jsonl").c_str());
  std::remove(temp_path("trace_det_b.jsonl").c_str());
}

TEST(Experiment, ScenarioResultCarriesCountersAndGroupStddev) {
  GlobalTraceGuard guard;
  counters().enable(200);
  const auto result = metrics::run_scenario(small_scenario());
  counters().disable();

  EXPECT_GT(result.counters.total(CounterId::kJoins), 0u);
  EXPECT_GT(result.counters.total(CounterId::kTreeEdges), 0u);
  // Two groups with different trees: dispersion fields are populated.
  EXPECT_GE(result.link_stress_group_stddev, 0.0);
  EXPECT_GE(result.delay_penalty_group_stddev, 0.0);
}

TEST(Experiment, CountersEmptyWhenRegistryDisabled) {
  GlobalTraceGuard guard;
  const auto result = metrics::run_scenario(small_scenario());
  EXPECT_EQ(result.counters.total(CounterId::kJoins), 0u);
  EXPECT_TRUE(result.counters.per_node.empty());
}

}  // namespace
}  // namespace groupcast::trace
