// Properties of the stub-domain shard partition and its lookahead
// (core/shard_partition.h), over transit-stub and Waxman worlds of 150 to
// 5,000 peers at 2, 3, 4 and 8 shards: the lookahead never exceeds the
// smallest latency between two peers on different shards (checked by brute
// force over every pair) and never falls below the old global bound; every
// stub domain sits on one shard; the split is a pure function of the world;
// and the fullest shard holds at most the mean plus the largest unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/shard_partition.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/population.h"
#include "sim/time.h"
#include "util/rng.h"

namespace groupcast {
namespace {

enum class Underlay { kTransitStub, kWaxman, kTwoDomains, kOneDomain };

struct World {
  std::unique_ptr<net::UnderlayTopology> underlay;
  std::unique_ptr<net::IpRouting> routing;
  std::unique_ptr<overlay::PeerPopulation> population;
};

World make_world(Underlay kind, std::size_t peers, std::uint64_t seed) {
  util::Rng rng(seed);
  World world;
  net::TransitStubConfig few;  // one transit router and its stub domains
  few.transit_domains = 1;
  few.routers_per_transit_domain = 1;
  few.routers_per_stub_domain = 3;
  switch (kind) {
    case Underlay::kTransitStub:
      world.underlay = std::make_unique<net::UnderlayTopology>(
          net::generate_transit_stub(net::scale_config_for_peers(peers), rng));
      break;
    case Underlay::kWaxman:
      world.underlay = std::make_unique<net::UnderlayTopology>(
          net::generate_waxman(net::WaxmanConfig{}, rng));
      break;
    case Underlay::kTwoDomains:
      few.stub_domains_per_transit_router = 2;
      world.underlay = std::make_unique<net::UnderlayTopology>(
          net::generate_transit_stub(few, rng));
      break;
    case Underlay::kOneDomain:
      few.stub_domains_per_transit_router = 1;
      world.underlay = std::make_unique<net::UnderlayTopology>(
          net::generate_transit_stub(few, rng));
      break;
  }
  world.routing = std::make_unique<net::IpRouting>(*world.underlay);
  overlay::PopulationConfig config;
  config.peer_count = peers;
  config.gnp.landmarks = 6;
  world.population =
      std::make_unique<overlay::PeerPopulation>(*world.routing, config, rng);
  return world;
}

std::int64_t micros(double ms) { return sim::SimTime::millis(ms).as_micros(); }

/// The lookahead before stub domains were sharded whole: the two smallest
/// access latencies plus the cheapest underlay link, less 1 µs.
std::int64_t old_global_bound_us(const World& world) {
  std::vector<double> access;
  for (const auto& peer : world.population->peers()) {
    access.push_back(peer.access_latency_ms);
  }
  std::partial_sort(access.begin(), access.begin() + 2, access.end());
  double min_link = std::numeric_limits<double>::infinity();
  for (net::LinkId l = 0; l < world.underlay->link_count(); ++l) {
    min_link = std::min(min_link, world.underlay->link(l).latency_ms);
  }
  return std::max<std::int64_t>(1,
                                micros(access[0] + access[1] + min_link) - 1);
}

/// The partition's unit of a peer: its leaf, or its router outside every
/// leaf, tagged apart.
std::pair<bool, std::uint32_t> unit_of(const World& world,
                                       overlay::PeerId peer) {
  const auto router = world.population->info(peer).router;
  const auto leaf = world.routing->leaf_of(router);
  if (leaf != net::IpRouting::kNoLeaf) return {true, leaf};
  return {false, router};
}

void expect_partition_properties(const World& world, std::size_t shards) {
  const auto& population = *world.population;
  const auto partition = core::partition_shards(population, shards);
  ASSERT_EQ(partition.peer_shard.size(), population.size());

  // Every unit (stub domain, or core router) sits on exactly one shard.
  std::map<std::pair<bool, std::uint32_t>, std::uint32_t> shard_of_unit;
  std::map<std::pair<bool, std::uint32_t>, std::size_t> unit_peers;
  std::vector<std::size_t> load(shards, 0);
  bool any_core = false;
  for (overlay::PeerId p = 0; p < population.size(); ++p) {
    const std::uint32_t shard = partition.peer_shard[p];
    ASSERT_LT(shard, shards);
    ++load[shard];
    const auto unit = unit_of(world, p);
    any_core = any_core || !unit.first;
    ++unit_peers[unit];
    const auto [it, fresh] = shard_of_unit.emplace(unit, shard);
    EXPECT_EQ(it->second, shard) << "unit split across shards at peer " << p;
  }

  // The fullest shard holds at most the mean plus the largest unit.
  std::size_t largest = 0;
  for (const auto& [unit, peers] : unit_peers) {
    largest = std::max(largest, peers);
  }
  const double mean = static_cast<double>(population.size()) /
                      static_cast<double>(shards);
  EXPECT_LE(static_cast<double>(*std::max_element(load.begin(), load.end())),
            mean + static_cast<double>(largest));
  // Every shard is used whenever there are enough units to go round.
  if (unit_peers.size() >= shards) {
    EXPECT_EQ(std::count(load.begin(), load.end(), 0u), 0);
  }

  // The lookahead against the brute-force minimum over every cross-shard
  // pair, converted to microseconds as the transport converts it.
  double brute_ms = std::numeric_limits<double>::infinity();
  for (overlay::PeerId a = 0; a < population.size(); ++a) {
    for (overlay::PeerId b = a + 1; b < population.size(); ++b) {
      if (partition.peer_shard[a] == partition.peer_shard[b]) continue;
      brute_ms = std::min(brute_ms, population.latency_ms(a, b));
    }
  }
  if (brute_ms == std::numeric_limits<double>::infinity()) {
    EXPECT_EQ(partition.lookahead_us, sim::kUnboundedLookahead);
    return;
  }
  EXPECT_LE(partition.lookahead_us, micros(brute_ms));
  EXPECT_GE(partition.lookahead_us, old_global_bound_us(world));
  if (!any_core) {
    // Leaf pairs are exact: only the 1 µs headroom and one rounding step
    // separate the lookahead from the true floor.
    EXPECT_GE(partition.lookahead_us, micros(brute_ms) - 2);
  }

  // A pure function of the world: again, and on a rebuilt copy.
  const auto again = core::partition_shards(population, shards);
  EXPECT_EQ(again.peer_shard, partition.peer_shard);
  EXPECT_EQ(again.lookahead_us, partition.lookahead_us);
}

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<Underlay, std::size_t>> {};

TEST_P(PartitionProperty, LookaheadUnitsBalanceAndDeterminism) {
  const auto [kind, peers] = GetParam();
  for (const std::uint64_t seed : {11u, 12u}) {
    const World world = make_world(kind, peers, seed);
    for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << peers << " peers, seed " << seed
                                      << ", " << shards << " shards");
      expect_partition_properties(world, shards);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PartitionProperty,
    ::testing::Values(std::make_tuple(Underlay::kTransitStub, 150),
                      std::make_tuple(Underlay::kTransitStub, 1500),
                      std::make_tuple(Underlay::kTransitStub, 5000),
                      std::make_tuple(Underlay::kWaxman, 150),
                      std::make_tuple(Underlay::kWaxman, 1000),
                      std::make_tuple(Underlay::kTwoDomains, 150),
                      std::make_tuple(Underlay::kOneDomain, 150)));

// Fewer units than shards: two stub domains over eight shards fill two
// shards and leave six empty; one stub domain leaves no cross-shard pair
// and so no bound on the lookahead.
TEST(ShardPartition, FewerUnitsThanShards) {
  const World two = make_world(Underlay::kTwoDomains, 150, 5);
  ASSERT_EQ(two.routing->leaf_count(), 2u);
  const auto split = core::partition_shards(*two.population, 8);
  std::vector<std::size_t> load(8, 0);
  for (const auto shard : split.peer_shard) ++load[shard];
  EXPECT_EQ(std::count(load.begin(), load.end(), 0u), 6);
  EXPECT_NE(split.lookahead_us, sim::kUnboundedLookahead);

  const World one = make_world(Underlay::kOneDomain, 150, 5);
  ASSERT_EQ(one.routing->leaf_count(), 1u);
  const auto whole = core::partition_shards(*one.population, 4);
  EXPECT_EQ(whole.peer_shard, std::vector<std::uint32_t>(150, 0));
  EXPECT_EQ(whole.lookahead_us, sim::kUnboundedLookahead);
}

// A world with no leaves splits router by router, and the split is the
// same on an independently rebuilt copy of the world.
TEST(ShardPartition, WaxmanSplitsPerRouterAndRebuildsIdentically) {
  const World world = make_world(Underlay::kWaxman, 400, 3);
  EXPECT_EQ(world.routing->leaf_count(), 0u);
  const World copy = make_world(Underlay::kWaxman, 400, 3);
  const auto a = core::partition_shards(*world.population, 4);
  const auto b = core::partition_shards(*copy.population, 4);
  EXPECT_EQ(a.peer_shard, b.peer_shard);
  EXPECT_EQ(a.lookahead_us, b.lookahead_us);
  EXPECT_EQ(a.lookahead_us, old_global_bound_us(world));
}

}  // namespace
}  // namespace groupcast
