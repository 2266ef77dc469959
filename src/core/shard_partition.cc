#include "core/shard_partition.h"

#include <algorithm>
#include <limits>

#include "net/routing.h"
#include "sim/time.h"
#include "util/require.h"

namespace groupcast::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The crude floor for pairs that involve a core router: any two distinct
/// peers on different routers pay two access latencies and cross at least
/// one underlay link.
double global_floor_ms(const overlay::PeerPopulation& population) {
  double first = kInf, second = kInf;
  for (const auto& peer : population.peers()) {
    const double access = peer.access_latency_ms;
    if (access < first) {
      second = first;
      first = access;
    } else if (access < second) {
      second = access;
    }
  }
  const auto& underlay = population.routing().topology();
  double min_link = kInf;
  for (net::LinkId l = 0; l < underlay.link_count(); ++l) {
    min_link = std::min(min_link, underlay.link(l).latency_ms);
  }
  return first + second + min_link;
}

}  // namespace

ShardPartition partition_shards(const overlay::PeerPopulation& population,
                                std::size_t num_shards) {
  GC_REQUIRE(num_shards >= 1);
  const net::IpRouting& routing = population.routing();
  const std::size_t leaves = routing.leaf_count();
  // Unit ids: leaf l is unit l; core router r is unit leaves + r.
  const auto unit_of = [&](net::RouterId router) -> std::size_t {
    const std::uint32_t leaf = routing.leaf_of(router);
    return leaf != net::IpRouting::kNoLeaf ? leaf : leaves + router;
  };
  struct Unit {
    std::size_t peers = 0;
    /// The peer with the smallest access + up: the unit's end of its
    /// shortest pair to any other leaf.
    overlay::PeerId exit_peer = overlay::kNoPeer;
    double exit_ms = kInf;
    std::uint32_t shard = 0;
  };
  std::vector<Unit> units(leaves + routing.topology().router_count());
  for (const auto& peer : population.peers()) {
    Unit& unit = units[unit_of(peer.router)];
    ++unit.peers;
    const double exit_ms = peer.access_latency_ms + routing.up_ms(peer.router);
    if (exit_ms < unit.exit_ms) {
      unit.exit_ms = exit_ms;
      unit.exit_peer = peer.id;
    }
  }

  std::vector<std::size_t> order;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (units[u].peers > 0) order.push_back(u);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return units[a].peers > units[b].peers;
                   });
  std::vector<std::size_t> load(num_shards, 0);
  for (const std::size_t u : order) {
    const auto lightest = std::min_element(load.begin(), load.end());
    units[u].shard = static_cast<std::uint32_t>(lightest - load.begin());
    *lightest += units[u].peers;
  }

  ShardPartition partition;
  partition.peer_shard.reserve(population.size());
  for (const auto& peer : population.peers()) {
    partition.peer_shard.push_back(units[unit_of(peer.router)].shard);
  }
  const auto used = static_cast<std::size_t>(
      std::count_if(load.begin(), load.end(),
                    [](std::size_t peers) { return peers > 0; }));
  if (used < 2) return partition;

  // Leaf pairs are exact; a pair with a core router takes the global floor.
  std::vector<const Unit*> leaf_units;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    if (units[leaf].peers > 0) leaf_units.push_back(&units[leaf]);
  }
  double floor_ms =
      leaf_units.size() < order.size() ? global_floor_ms(population) : kInf;
  for (std::size_t i = 0; i < leaf_units.size(); ++i) {
    for (std::size_t j = i + 1; j < leaf_units.size(); ++j) {
      if (leaf_units[i]->shard == leaf_units[j]->shard) continue;
      floor_ms = std::min(floor_ms,
                          population.latency_ms(leaf_units[i]->exit_peer,
                                                leaf_units[j]->exit_peer));
    }
  }
  GC_REQUIRE_MSG(floor_ms > 0.0 && floor_ms < kInf,
                 "sharded execution needs a positive cross-shard latency "
                 "floor");
  partition.lookahead_us = std::max<std::int64_t>(
      1, sim::SimTime::millis(floor_ms).as_micros() - 1);
  return partition;
}

}  // namespace groupcast::core
