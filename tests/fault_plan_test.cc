// Tests for deterministic fault injection: fault-plan validation, the
// injector's crash scheduling, partition drops at the transport, the
// transport's crash semantics, and the option-validation regressions that
// ride along (ChurnOptions::failure_fraction,
// TransportOptions::loss_probability).
#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "core/transport.h"
#include "overlay/bootstrap.h"
#include "overlay/churn.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "sim/fault_plan.h"
#include "test_helpers.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "util/require.h"

namespace groupcast {
namespace {

using core::Envelope;
using core::Transport;
using core::TransportOptions;
using overlay::PeerId;
using sim::FaultPlan;
using sim::SimTime;

// ---------------------------------------------------------------- the plan

TEST(FaultPlan, ValidateRejectsEmptyOrInvertedWindows) {
  FaultPlan plan;
  plan.partitions.push_back(
      sim::PartitionWindow{SimTime::seconds(1.0), SimTime::seconds(2.0),
                           {1}, {2}});
  EXPECT_NO_THROW(plan.validate());
  plan.partitions[0].end = SimTime::seconds(1.0);  // begin == end
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.partitions[0].end = SimTime::seconds(2.0);
  plan.partitions[0].side_a.clear();
  EXPECT_THROW(plan.validate(), PreconditionError);
}

// ---------------------------------------------------------- the injector

struct TransportFixture {
  testing::SmallWorld world;
  sim::Simulator simulator;
  Transport transport;
  std::vector<Envelope> inbox;

  TransportFixture()
      : world(16, 5),
        transport(simulator, *world.population, TransportOptions{},
                  world.rng) {}

  void attach(PeerId peer) {
    transport.register_node(
        peer, [this](const Envelope& e) { inbox.push_back(e); });
  }
};

TEST(FaultInjector, SchedulesCrashesDeterministically) {
  TransportFixture f;
  FaultPlan plan;
  plan.crashes = {{SimTime::seconds(1.0), 3}, {SimTime::seconds(2.0), 5}};
  core::FaultInjector injector(std::move(plan), f.transport);
  std::vector<std::pair<PeerId, std::int64_t>> crashes;
  injector.arm([&](PeerId victim) {
    crashes.emplace_back(victim, f.simulator.now().as_micros());
  });
  f.simulator.run();
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0],
            std::make_pair(PeerId{3}, SimTime::seconds(1.0).as_micros()));
  EXPECT_EQ(crashes[1],
            std::make_pair(PeerId{5}, SimTime::seconds(2.0).as_micros()));
  EXPECT_EQ(injector.crashed(),
            (std::vector<PeerId>{3, 5}));
}

TEST(FaultInjector, PartitionWindowBlocksCrossSideTraffic) {
  TransportFixture f;
  f.attach(1);
  f.attach(2);
  f.attach(3);
  FaultPlan plan;
  plan.partitions.push_back(
      sim::PartitionWindow{SimTime::zero(), SimTime::seconds(1.0), {1}, {2}});
  core::FaultInjector injector(std::move(plan), f.transport);
  // Cross-partition send: dropped at send time.
  f.transport.send(1, 2, core::HeartbeatMsg{9});
  // Same-side / unaffected peers still talk.
  f.transport.send(1, 3, core::HeartbeatMsg{9});
  f.simulator.run_until(SimTime::seconds(1.0));
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].to, 3u);
  EXPECT_EQ(f.transport.messages_lost(), 1u);
  // After the window closes the same edge works again.
  f.simulator.schedule_at(SimTime::seconds(1.0), [&f] {
    f.transport.send(1, 2, core::HeartbeatMsg{9});
  });
  f.simulator.run();
  EXPECT_EQ(f.inbox.size(), 2u);
}

// ------------------------------------------------- transport crash semantics

TEST(Transport, InFlightMessagesFromCrashedOriginAreSuppressed) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  // 2 sends, then crashes before the message is delivered: the packet
  // must die with its origin instead of arriving from a ghost.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2);
  f.simulator.run();
  EXPECT_TRUE(f.inbox.empty());
  EXPECT_EQ(f.transport.messages_sent(), 1u);
}

TEST(Transport, GracefulDetachLetsInFlightSendsLand) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  // 2 sends a final control message and detaches gracefully: unlike a
  // crash, the already-sent packet must still reach its peer.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2, core::DetachMode::kGraceful);
  f.simulator.run();
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].from, 2u);
}

// The one crash rule: a message dies iff its sender crashed after sending
// it and at or before its arrival.  A one-shard transport takes the crash
// instant from unregister_node(kCrash); a graceful detach sets none.
TEST(Transport, CrashBetweenSendAndArrivalDropsAsOriginDeparted) {
  for (const auto mode :
       {core::DetachMode::kCrash, core::DetachMode::kGraceful}) {
    TransportFixture f;
    f.attach(2);
    f.attach(3);
    trace::ScopedSink sink(std::make_unique<trace::RingBufferSink>(64));
    const auto sent_at = SimTime::millis(1);
    const auto detach_at = sent_at + SimTime::micros(1);
    f.simulator.schedule_at(sent_at, [&f] {
      f.transport.send(2, 3, core::HeartbeatMsg{9});
    });
    f.simulator.schedule_at(detach_at, [&f, mode] {
      f.transport.unregister_node(2, mode);
    });
    f.simulator.run();
    std::vector<trace::TraceEvent> drops;
    for (const auto& event :
         static_cast<trace::RingBufferSink*>(sink.get())->events()) {
      if (event.kind == trace::EventKind::kMessageDropped) {
        drops.push_back(event);
      }
    }
    if (mode == core::DetachMode::kGraceful) {
      ASSERT_EQ(f.inbox.size(), 1u);
      EXPECT_EQ(f.inbox[0].from, 2u);
      EXPECT_TRUE(drops.empty());
      continue;
    }
    EXPECT_TRUE(f.inbox.empty());
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].node, 2u);
    EXPECT_EQ(drops[0].peer, 3u);
    EXPECT_EQ(drops[0].value, static_cast<std::uint64_t>(
                                  trace::DropReason::kOriginDeparted));
    EXPECT_GT(drops[0].t_us, detach_at.as_micros());  // dropped on arrival
  }
}

TEST(Transport, ReRegisteringAfterCrashStartsACleanGeneration) {
  TransportFixture f;
  f.attach(2);
  f.attach(3);
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.transport.unregister_node(2);
  f.attach(2);
  // The pre-crash packet stays dead, but the reincarnated node's traffic
  // flows normally.
  f.transport.send(2, 3, core::HeartbeatMsg{9});
  f.simulator.run();
  ASSERT_EQ(f.inbox.size(), 1u);
  EXPECT_EQ(f.inbox[0].from, 2u);
}

TEST(Transport, SendsFromNeverRegisteredDriversStillDeliver) {
  // Test drivers inject messages from peers that never registered a
  // handler; those must keep flowing (only a *crash* suppresses).
  TransportFixture f;
  f.attach(3);
  f.transport.send(0, 3, core::HeartbeatMsg{9});
  f.simulator.run();
  EXPECT_EQ(f.inbox.size(), 1u);
}

// ------------------------------------------------- option-range regressions

TEST(TransportOptionsValidation, RejectsOutOfRangeLossProbability) {
  testing::SmallWorld world(8, 1);
  sim::Simulator simulator;
  TransportOptions options;
  options.loss_probability = 1.5;
  EXPECT_THROW(
      Transport(simulator, *world.population, options, world.rng),
      PreconditionError);
  options.loss_probability = -0.1;
  EXPECT_THROW(
      Transport(simulator, *world.population, options, world.rng),
      PreconditionError);
}

TEST(ChurnOptionsValidation, RejectsOutOfRangeFailureFraction) {
  testing::SmallWorld world(8, 2);
  sim::Simulator simulator;
  overlay::OverlayGraph graph(8);
  overlay::HostCacheServer cache(*world.population,
                                 overlay::HostCacheOptions{}, world.rng);
  overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                        overlay::BootstrapOptions{},
                                        world.rng);
  overlay::ChurnOptions options;
  options.failure_fraction = 1.5;
  EXPECT_THROW(overlay::ChurnModel(simulator, bootstrap, options, world.rng),
               PreconditionError);
  options.failure_fraction = -0.5;
  EXPECT_THROW(overlay::ChurnModel(simulator, bootstrap, options, world.rng),
               PreconditionError);
}

}  // namespace
}  // namespace groupcast
