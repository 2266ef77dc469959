// The sharded event kernel (sim/shard_set.h) and its determinism
// contract: a recovery scenario must produce byte-identical metrics,
// counters and histograms at every shard count, cross-shard delivery
// order must not depend on which epoch barrier merged a message, and the
// shard-count preconditions must reject nonsense loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "core/shard_partition.h"
#include "core/transport.h"
#include "metrics/experiment.h"
#include "sim/shard_set.h"
#include "test_helpers.h"
#include "util/require.h"
#include "util/rng.h"

namespace groupcast {
namespace {

/// A client with no cross-shard traffic: lets ShardSet be unit-tested as
/// a bare multi-wheel scheduler.
class NullClient : public sim::ShardSet::Client {
 public:
  void merge_inbound(std::size_t) override {}
};

TEST(ShardSet, RunsTimersOnEveryShardAndCountsEvents) {
  sim::ShardSet shards(3, /*lookahead_us=*/500);
  NullClient client;
  shards.set_client(&client);
  std::atomic<int> fired{0};
  for (std::size_t i = 0; i < shards.num_shards(); ++i) {
    for (int k = 1; k <= 4; ++k) {
      shards.shard(i).schedule_at(sim::SimTime::millis(k),
                                  [&fired] { ++fired; });
    }
  }
  shards.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(fired.load(), 12);
  EXPECT_EQ(shards.events_fired(), 12u);
  EXPECT_EQ(shards.now(), sim::SimTime::millis(10));
  const auto per_shard = shards.events_per_shard();
  ASSERT_EQ(per_shard.size(), 3u);
  EXPECT_EQ(per_shard[0] + per_shard[1] + per_shard[2], 12u);
  // Every shard clock fast-forwards to the deadline even when idle.
  for (std::size_t i = 0; i < shards.num_shards(); ++i) {
    EXPECT_EQ(shards.shard(i).now(), sim::SimTime::millis(10));
  }
}

TEST(ShardSet, ExecRunsOnDistinctWorkerThreads) {
  sim::ShardSet shards(4, /*lookahead_us=*/500);
  std::vector<std::thread::id> ids(shards.num_shards());
  shards.exec_on_shards(
      [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  std::set<std::thread::id> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(unique.count(std::this_thread::get_id()), 0u);
  // A second exec lands on the same workers (threads are persistent).
  std::vector<std::thread::id> again(shards.num_shards());
  shards.exec_on_shards(
      [&](std::size_t i) { again[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ids, again);
}

// A one-shard set starts no worker: exec and every event run on the
// calling thread, whose thread-local trace facilities therefore see them.
TEST(ShardSet, OneShardRunsOnTheCallingThread) {
  sim::ShardSet shards(1, /*lookahead_us=*/500);
  NullClient client;
  shards.set_client(&client);
  std::thread::id exec_id;
  shards.exec_on_shards([&](std::size_t) {
    exec_id = std::this_thread::get_id();
  });
  EXPECT_EQ(exec_id, std::this_thread::get_id());
  std::vector<std::thread::id> fired_on;
  for (int k = 1; k <= 3; ++k) {
    shards.shard(0).schedule_at(sim::SimTime::millis(k), [&fired_on] {
      fired_on.push_back(std::this_thread::get_id());
    });
  }
  shards.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(fired_on, std::vector<std::thread::id>(
                          3, std::this_thread::get_id()));
  EXPECT_EQ(shards.events_fired(), 3u);
  EXPECT_EQ(shards.shard(0).now(), sim::SimTime::millis(10));
}

// Each epoch runs one lookahead window from the earliest pending event;
// after the last event the rest of the span is one more epoch.  An
// unbounded lookahead (no cross-shard traffic) makes every run_until one
// epoch.
TEST(ShardSet, CountsItsEpochs) {
  NullClient client;
  const auto timers_at_1_to_4_ms = [](sim::ShardSet& shards) {
    for (std::size_t i = 0; i < shards.num_shards(); ++i) {
      for (int k = 1; k <= 4; ++k) {
        shards.shard(i).schedule_at(sim::SimTime::millis(k), [] {});
      }
    }
  };
  sim::ShardSet windowed(2, /*lookahead_us=*/500);
  windowed.set_client(&client);
  timers_at_1_to_4_ms(windowed);
  EXPECT_EQ(windowed.epochs(), 0u);
  windowed.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(windowed.epochs(), 5u);

  sim::ShardSet unbounded(2, sim::kUnboundedLookahead);
  unbounded.set_client(&client);
  timers_at_1_to_4_ms(unbounded);
  unbounded.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(unbounded.epochs(), 1u);
  EXPECT_EQ(unbounded.events_fired(), 8u);
  unbounded.run_until(sim::SimTime::millis(20));
  EXPECT_EQ(unbounded.epochs(), 2u);

  sim::ShardSet single(1, /*lookahead_us=*/500);
  single.set_client(&client);
  timers_at_1_to_4_ms(single);
  single.run_until(sim::SimTime::millis(10));
  EXPECT_EQ(single.epochs(), 1u);
}

/// One delivery observed by a receiver, in observation order.
using Delivery = std::tuple<overlay::PeerId, overlay::PeerId, std::uint64_t,
                            std::int64_t>;

/// Drives a burst of cross-peer DataMsg traffic through `transport` and
/// returns every delivery in per-receiver observation order.  Sends are
/// issued from *inside* scheduled events so, when sharded, they traverse
/// the real outbox / merge / keyed-delivery machinery.
std::vector<Delivery> drive_burst(core::Transport& transport,
                                  const std::function<void()>& run) {
  const auto peers = transport.population().size();
  std::vector<std::vector<Delivery>> by_receiver(peers);
  for (overlay::PeerId p = 0; p < peers; ++p) {
    transport.register_node(p, [&by_receiver, p](const core::Envelope& env) {
      const auto& data = std::get<core::DataMsg>(env.body);
      by_receiver[p].push_back({env.from, env.to, data.payload_id, 0});
    });
  }
  // Every peer fires three staggered bursts, each fanning out to a fixed
  // window of other peers — plenty of same-instant cross-shard arrivals.
  for (overlay::PeerId p = 0; p < peers; ++p) {
    for (int burst = 0; burst < 3; ++burst) {
      transport.simulator_for(p).schedule_at(
          sim::SimTime::millis(1 + burst * 2), [&transport, p, burst, peers] {
            for (overlay::PeerId d = 1; d <= 5; ++d) {
              const auto to = static_cast<overlay::PeerId>((p + d) % peers);
              core::DataMsg msg;
              msg.origin = p;
              msg.payload_id =
                  static_cast<std::uint64_t>(burst) * 1000 + p * 10 + d;
              transport.send(p, to, msg);
            }
          });
    }
  }
  run();
  std::vector<Delivery> flat;
  for (const auto& one : by_receiver) {
    flat.insert(flat.end(), one.begin(), one.end());
  }
  EXPECT_EQ(flat.size(), 48u * 3u * 5u);
  return flat;
}

std::vector<Delivery> sharded_burst(std::size_t num_shards) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  const auto partition = core::partition_shards(*world.population, num_shards);
  sim::ShardSet shards(num_shards, partition.lookahead_us);
  core::TransportOptions options;
  core::Transport transport(shards, *world.population, partition.peer_shard,
                            options, world.rng);
  // Transit-stub paths reach hundreds of ms; leave room for every tail.
  return drive_burst(transport,
                     [&shards] { shards.run_until(sim::SimTime::seconds(2)); });
}

// The ordering golden: the per-receiver delivery sequence (who, what,
// in which order) is a pure function of the traffic, not of the shard
// count — deliveries are keyed wheel events ordered by (arrival, src,
// send counter) regardless of which epoch barrier scheduled them.
TEST(ShardSet, CrossShardDeliveryOrderInvariantAcrossShardCounts) {
  const auto one = sharded_burst(1);
  EXPECT_EQ(sharded_burst(2), one);
  EXPECT_EQ(sharded_burst(4), one);
  EXPECT_EQ(sharded_burst(7), one);
}

/// What the transport itself accounts for one drive_burst run.
struct BurstAccounting {
  std::size_t sent = 0;
  std::size_t bytes = 0;
  std::size_t lost = 0;
  std::vector<std::size_t> per_kind;
  std::vector<Delivery> deliveries;  // sorted: a multiset, not an order

  friend bool operator==(const BurstAccounting&,
                         const BurstAccounting&) = default;
};

/// The sharded_burst traffic: `num_shards` == 0 is a one-shard transport
/// on a bare simulator, anything else a ShardSet of that many shards.
BurstAccounting burst_accounting(std::size_t num_shards) {
  testing::SmallWorld world(/*peers=*/48, /*seed=*/7);
  const core::TransportOptions options;
  sim::Simulator wheel;
  std::unique_ptr<sim::ShardSet> shards;
  std::unique_ptr<core::Transport> transport;
  if (num_shards == 0) {
    transport = std::make_unique<core::Transport>(wheel, *world.population,
                                                  options, world.rng);
  } else {
    const auto partition =
        core::partition_shards(*world.population, num_shards);
    shards = std::make_unique<sim::ShardSet>(num_shards,
                                             partition.lookahead_us);
    transport = std::make_unique<core::Transport>(
        *shards, *world.population, partition.peer_shard, options, world.rng);
  }
  BurstAccounting out;
  out.deliveries = drive_burst(*transport, [&] {
    const auto deadline = sim::SimTime::seconds(2);
    if (shards != nullptr) {
      shards->run_until(deadline);
    } else {
      wheel.run_until(deadline);
    }
  });
  std::sort(out.deliveries.begin(), out.deliveries.end());
  out.sent = transport->messages_sent();
  out.bytes = transport->bytes_sent();
  out.lost = transport->messages_lost();
  for (std::size_t k = 0; k < core::kMessageKinds; ++k) {
    out.per_kind.push_back(
        transport->stats().of(static_cast<core::MessageKind>(k)));
  }
  return out;
}

// The merged per-shard counters must agree with the bare simulator's: the
// same traffic is the same sends, bytes, per-kind stats and deliveries at
// any shard count.
TEST(ShardSet, TransportAccountingAgreesAcrossEngines) {
  const auto wheel = burst_accounting(0);
  EXPECT_EQ(wheel.sent, 48u * 3u * 5u);
  EXPECT_EQ(wheel.bytes, 48u * 3u * 5u * 17u);  // one 17-byte DataMsg each
  EXPECT_EQ(wheel.lost, 0u);
  const auto payload = static_cast<std::size_t>(core::MessageKind::kPayload);
  EXPECT_EQ(wheel.per_kind[payload], wheel.sent);
  EXPECT_EQ(wheel.deliveries.size(), wheel.sent);
  EXPECT_EQ(burst_accounting(1), wheel);
  EXPECT_EQ(burst_accounting(2), wheel);
  EXPECT_EQ(burst_accounting(4), wheel);
}

metrics::ScenarioConfig shard_point(std::size_t shards) {
  metrics::ScenarioConfig point;
  point.peer_count = 200;
  point.groups = 1;
  point.seed = 4242;
  point.shards = shards;
  point.recovery.enabled = true;
  point.recovery.loss_probability = 0.2;
  point.recovery.crash_fraction = 0.3;
  return point;
}

// The determinism contract: every metric field, the counter totals, the
// histogram bins and the flight-recorder timeline of a hostile recovery
// run are byte-identical at shard counts 1, 2, 4 and 8.
TEST(ShardDeterminism, RecoveryResultsIdenticalAcrossShardCounts) {
  metrics::GridOptions options;
  options.repetitions = 1;
  options.counters = true;
  options.histograms = true;
  options.timeline = true;

  std::vector<metrics::ScenarioResult> results;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::vector<metrics::ScenarioConfig> points{shard_point(shards)};
    auto reduced = metrics::run_scenario_grid(points, options);
    ASSERT_EQ(reduced.size(), 1u);
    results.push_back(std::move(reduced.front()));
  }
  const auto& base = results.front();
  ASSERT_EQ(base.events_per_shard.size(), 1u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& other = results[i];
    EXPECT_EQ(base.delivery_ratio, other.delivery_ratio);
    EXPECT_EQ(base.reattached_fraction, other.reattached_fraction);
    EXPECT_EQ(base.mean_orphan_epochs, other.mean_orphan_epochs);
    EXPECT_EQ(base.epochs_to_converge, other.epochs_to_converge);
    EXPECT_EQ(base.control_overhead, other.control_overhead);
    EXPECT_EQ(base.invariant_violations, other.invariant_violations);
    EXPECT_EQ(base.invariant_violations_max, other.invariant_violations_max);
    EXPECT_EQ(base.subscription_success_rate,
              other.subscription_success_rate);
    EXPECT_EQ(base.subscription_messages, other.subscription_messages);
    EXPECT_EQ(base.avg_tree_nodes, other.avg_tree_nodes);
    EXPECT_EQ(base.counters.totals, other.counters.totals);
    EXPECT_EQ(base.counters.per_node, other.counters.per_node);
    EXPECT_EQ(base.histograms.data, other.histograms.data);
    EXPECT_EQ(base.timeline, other.timeline);
    // The total workload is invariant; only its split across shards moves.
    EXPECT_EQ(base.events_fired, other.events_fired);
    EXPECT_EQ(other.events_per_shard.size(), std::size_t{1} << i);
    std::uint64_t sum = 0;
    for (const auto events : other.events_per_shard) sum += events;
    EXPECT_EQ(sum, other.events_fired);
  }
  // The run exercised the recovery machinery.
  EXPECT_GT(base.counters.total(trace::CounterId::kControlRetries), 0u);
  EXPECT_GT(base.counters.total(trace::CounterId::kHeartbeats), 0u);
  EXPECT_DOUBLE_EQ(base.reattached_fraction, 1.0);
  EXPECT_DOUBLE_EQ(base.invariant_violations, 0.0);
  EXPECT_GT(base.timeline.size(), 2u);
}

TEST(ShardDeterminism, ShardCountValidation) {
  // 0 is not an error: it lets the runtime choose, and a 200-peer run
  // stays on one shard.
  const auto chosen = metrics::run_scenario(shard_point(0));
  EXPECT_EQ(chosen.config.shards, 1u);
  EXPECT_EQ(chosen.events_per_shard.size(), 1u);
  auto oversubscribed = shard_point(4);
  oversubscribed.peer_count = 3;
  EXPECT_THROW(metrics::run_scenario(oversubscribed), PreconditionError);
  metrics::ScenarioConfig engine_level;
  engine_level.peer_count = 64;
  engine_level.groups = 1;
  engine_level.shards = 2;
  EXPECT_THROW(metrics::run_scenario(engine_level), PreconditionError);
}

}  // namespace
}  // namespace groupcast
