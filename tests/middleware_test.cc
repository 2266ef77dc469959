// Integration tests: the GroupCastMiddleware façade end to end, plus the
// experiment harness in metrics/.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/middleware.h"
#include "metrics/experiment.h"
#include "metrics/graph_stats.h"
#include "trace/counters.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "util/parallel.h"
#include "util/require.h"
#include "util/stats.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

MiddlewareConfig small_config(OverlayKind kind, std::uint64_t seed = 5) {
  MiddlewareConfig config;
  config.peer_count = 150;
  config.seed = seed;
  config.overlay = kind;
  return config;
}

TEST(Middleware, BuildsConnectedGroupCastOverlay) {
  GroupCastMiddleware middleware(small_config(OverlayKind::kGroupCast));
  const auto report = middleware.graph().connectivity();
  EXPECT_TRUE(report.connected);
  EXPECT_EQ(middleware.population().size(), 150u);
  EXPECT_GT(middleware.graph().edge_count(), 150u);
}

TEST(Middleware, BuildsConnectedPlodOverlay) {
  GroupCastMiddleware middleware(small_config(OverlayKind::kRandomPowerLaw));
  EXPECT_TRUE(middleware.graph().connectivity().connected);
}

// The overlay is built once, in the constructor; establishing groups and
// disseminating over them reads it and never adds or drops a link.
TEST(Middleware, GroupsAndSessionsLeaveTheOverlayUnchanged) {
  for (const auto kind : {OverlayKind::kGroupCast,
                          OverlayKind::kRandomPowerLaw,
                          OverlayKind::kSupernode}) {
    SCOPED_TRACE(to_string(kind));
    GroupCastMiddleware middleware(small_config(kind, 13));
    const auto& graph = middleware.graph();
    const auto adjacency = [&graph] {
      std::vector<std::vector<PeerId>> rows(graph.peer_count());
      for (PeerId p = 0; p < graph.peer_count(); ++p) {
        const auto span = graph.out_neighbors(p);
        rows[p].assign(span.begin(), span.end());
      }
      return rows;
    };
    const auto before = adjacency();
    const std::size_t edges = graph.edge_count();
    for (int round = 0; round < 3; ++round) {
      auto group = middleware.establish_random_group(30);
      const auto session = middleware.session(group);
      static_cast<void>(session.disseminate(group.advert.rendezvous));
    }
    EXPECT_EQ(graph.edge_count(), edges);
    EXPECT_EQ(adjacency(), before);
  }
}

TEST(Middleware, RendezvousIsConnectedAndCapable) {
  GroupCastMiddleware middleware(small_config(OverlayKind::kGroupCast));
  util::Summary capacities;
  for (int trial = 0; trial < 20; ++trial) {
    const auto rp = middleware.pick_rendezvous();
    EXPECT_GT(middleware.graph().degree(rp), 0u);
    capacities.add(middleware.population().info(rp).capacity);
  }
  // The walk seeks capacity: the picked peers should be far above the
  // population median (10x).
  EXPECT_GT(capacities.median(), 10.0);
}

TEST(Middleware, EstablishGroupInvariants) {
  GroupCastMiddleware middleware(small_config(OverlayKind::kGroupCast));
  std::vector<PeerId> subscribers{3, 17, 42, 99, 140};
  const auto rendezvous = middleware.pick_rendezvous();
  auto group = middleware.establish_group(rendezvous, subscribers);

  EXPECT_EQ(group.advert.rendezvous, rendezvous);
  EXPECT_TRUE(group.tree.is_consistent());
  EXPECT_EQ(group.tree.root(), rendezvous);
  EXPECT_EQ(group.report.outcomes.size(), subscribers.size());
  // Every successful subscriber is a tree subscriber.
  for (const auto& outcome : group.report.outcomes) {
    if (outcome.success) {
      EXPECT_TRUE(group.tree.is_subscriber(outcome.subscriber));
    }
  }
  // Message statistics cover the advertisement.
  EXPECT_EQ(group.stats.advertisement_messages(), group.advert.messages);
}

TEST(Middleware, SessionDisseminatesToSubscribers) {
  GroupCastMiddleware middleware(small_config(OverlayKind::kGroupCast));
  auto group = middleware.establish_random_group(30);
  ASSERT_GT(group.tree.subscriber_count(), 0u);
  const auto session = middleware.session(group);
  const auto result = session.disseminate(group.advert.rendezvous);
  EXPECT_GT(result.payload_messages, 0u);
  EXPECT_GT(result.average_delay_ms, 0.0);
  // All subscribers (minus the source itself) got the payload.
  std::size_t expected = group.tree.subscriber_count();
  if (group.tree.is_subscriber(group.advert.rendezvous)) --expected;
  EXPECT_EQ(result.subscriber_delay_ms.size(), expected);
}

TEST(Middleware, DeterministicForSameSeed) {
  GroupCastMiddleware a(small_config(OverlayKind::kGroupCast, 77));
  GroupCastMiddleware b(small_config(OverlayKind::kGroupCast, 77));
  EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
  auto group_a = a.establish_random_group(20);
  auto group_b = b.establish_random_group(20);
  EXPECT_EQ(group_a.advert.rendezvous, group_b.advert.rendezvous);
  EXPECT_EQ(group_a.advert.messages, group_b.advert.messages);
  EXPECT_EQ(group_a.tree.node_count(), group_b.tree.node_count());
}

TEST(Middleware, DifferentSeedsDiffer) {
  GroupCastMiddleware a(small_config(OverlayKind::kGroupCast, 1));
  GroupCastMiddleware b(small_config(OverlayKind::kGroupCast, 2));
  // Edge counts could rarely coincide, so compare degree sequences.
  const auto da = metrics::degree_distribution(a.graph()).items();
  const auto db = metrics::degree_distribution(b.graph()).items();
  EXPECT_NE(da, db);
}

TEST(Middleware, GroupCastNeighborsCloserThanPlod) {
  GroupCastMiddleware gc(small_config(OverlayKind::kGroupCast, 11));
  GroupCastMiddleware pl(small_config(OverlayKind::kRandomPowerLaw, 11));
  const auto gc_dist =
      metrics::neighbor_distance_summary(gc.population(), gc.graph());
  const auto pl_dist =
      metrics::neighbor_distance_summary(pl.population(), pl.graph());
  EXPECT_LT(gc_dist.mean(), pl_dist.mean());
}

TEST(Middleware, RejectsDegenerateConfigs) {
  MiddlewareConfig config;
  config.peer_count = 1;
  EXPECT_THROW(GroupCastMiddleware{config}, PreconditionError);
}

// ---------------------------------------------------------------- harness

TEST(Experiment, EffectiveGroupSizeDefaults) {
  metrics::ScenarioConfig config;
  config.peer_count = 1000;
  EXPECT_EQ(config.effective_group_size(), 100u);
  config.peer_count = 50;
  EXPECT_EQ(config.effective_group_size(), 16u);
  config.group_size = 30;
  EXPECT_EQ(config.effective_group_size(), 30u);
  config.group_size = 500;
  EXPECT_EQ(config.effective_group_size(), 50u);  // capped at peers
}

TEST(Experiment, RunScenarioPopulatesAllFields) {
  metrics::ScenarioConfig config;
  config.peer_count = 150;
  config.groups = 2;
  config.seed = 9;
  const auto result = metrics::run_scenario(config);
  EXPECT_GT(result.advertisement_messages, 0.0);
  EXPECT_GT(result.receiving_rate, 0.0);
  EXPECT_GT(result.subscription_success_rate, 0.5);
  EXPECT_GT(result.lookup_latency_ms, 0.0);
  EXPECT_GE(result.delay_penalty, 1.0);
  EXPECT_GE(result.link_stress, 1.0);
  EXPECT_GT(result.node_stress, 0.0);
  EXPECT_GE(result.overload_index, 0.0);
  EXPECT_GT(result.avg_tree_nodes, 0.0);
}

// Everything observable about one deployment + group-establishment run:
// used to check that forking a DeploymentSnapshot is bit-identical to
// constructing the middleware from scratch, instrumentation included.
struct DeploymentOutcome {
  std::size_t edges = 0;
  std::size_t advert_messages = 0;
  std::vector<PeerId> advert_parent;
  std::size_t subscribers = 0;
  trace::CounterSnapshot counters;
  std::vector<trace::TraceEvent> events;
};

// Builds a middleware (fresh when `world` is null, on the shared world
// otherwise), establishes a group, and captures results + counters + trace
// events under run-private instrumentation.
DeploymentOutcome run_deployment(
    const MiddlewareConfig& config,
    std::shared_ptr<const DeploymentSnapshot> world) {
  trace::CounterRegistry registry;
  registry.enable(config.peer_count);
  trace::ScopedCounterRegistry counter_guard(registry);
  trace::RingBufferSink ring(1 << 16);
  trace::tracer().set_sink(&ring);
  DeploymentOutcome out;
  {
    const auto middleware =
        world ? std::make_unique<GroupCastMiddleware>(world)
              : std::make_unique<GroupCastMiddleware>(config);
    out.edges = middleware->graph().edge_count();
    auto group = middleware->establish_random_group(25);
    out.advert_messages = group.advert.messages;
    out.advert_parent = group.advert.parent;
    out.subscribers = group.tree.subscriber_count();
  }
  trace::tracer().set_sink(nullptr);
  out.counters = registry.snapshot();
  out.events = ring.events();
  EXPECT_EQ(ring.dropped(), 0u);
  return out;
}

void expect_same_outcome(const DeploymentOutcome& a,
                         const DeploymentOutcome& b) {
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.advert_messages, b.advert_messages);
  EXPECT_EQ(a.advert_parent, b.advert_parent);
  EXPECT_EQ(a.subscribers, b.subscribers);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.events, b.events);
}

std::size_t count_events(const std::vector<trace::TraceEvent>& events,
                         trace::EventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const auto& e) { return e.kind == kind; }));
}

TEST(Middleware, DeploymentSnapshotForkMatchesFreshConstruction) {
  for (const auto kind : {OverlayKind::kGroupCast,
                          OverlayKind::kRandomPowerLaw,
                          OverlayKind::kSupernode}) {
    SCOPED_TRACE(to_string(kind));
    const auto config = small_config(kind, 11);
    const auto fresh = run_deployment(config, nullptr);
    const auto world = GroupCastMiddleware::make_snapshot(config);
    // Two forks off one world: forking must not consume world state.
    for (int i = 0; i < 2; ++i) {
      // The construction counters and trace events replay from the
      // world's join log, so the full instrumentation record of a forked
      // run equals a fresh run's.
      expect_same_outcome(run_deployment(config, world), fresh);
    }
    // Every GroupCast peer joins through the bootstrap; the power-law
    // overlay joins nobody; the supernode build logs its core tier only.
    std::size_t joins = 0;
    if (kind == OverlayKind::kGroupCast) joins = config.peer_count;
    if (kind == OverlayKind::kSupernode) {
      joins = world->supernode_layout.supernodes.size();
      EXPECT_GT(joins, 0u);
      EXPECT_LT(joins, config.peer_count);
    }
    EXPECT_EQ(world->joins.size(), joins);
    EXPECT_EQ(fresh.counters.total(trace::CounterId::kJoins), joins);
    EXPECT_EQ(count_events(fresh.events, trace::EventKind::kPeerJoin), joins);
    EXPECT_EQ(world->bootstrap, nullptr);

    // Forks share the world's overlay instead of copying it.
    const GroupCastMiddleware a(world);
    const GroupCastMiddleware b(world);
    EXPECT_EQ(&a.graph(), &b.graph());
    EXPECT_EQ(&a.graph(), world->graph.get());
  }
}

// Forks of one world run concurrently on grid workers: the world is read
// only, and the instrumentation is per thread, so each concurrent run
// equals the same run made serially, counters and trace events included.
TEST(Middleware, ConcurrentForksOfOneWorldMatchSerialForks) {
  const auto config = small_config(OverlayKind::kGroupCast, 17);
  const auto world = GroupCastMiddleware::make_snapshot(config);
  const auto serial = run_deployment(config, world);
  std::vector<DeploymentOutcome> concurrent(2);
  util::parallel_for(
      concurrent.size(), 1,
      [&](std::size_t i) { concurrent[i] = run_deployment(config, world); },
      2);
  for (const auto& run : concurrent) expect_same_outcome(run, serial);
}

TEST(Experiment, AveragingIsDeterministicAndWithinRange) {
  metrics::ScenarioConfig config;
  config.peer_count = 120;
  config.groups = 2;
  config.seed = 3;
  const auto a = metrics::run_scenario_averaged(config, 2);
  const auto b = metrics::run_scenario_averaged(config, 2);
  EXPECT_DOUBLE_EQ(a.delay_penalty, b.delay_penalty);
  EXPECT_DOUBLE_EQ(a.advertisement_messages, b.advertisement_messages);
}

}  // namespace
}  // namespace groupcast::core
