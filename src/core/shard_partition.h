// Which event-kernel shard every peer runs on, and the lookahead that
// split allows (sim/shard_set.h).
//
// The unit of the split is a stub domain: one of IpRouting's leaves, which
// reach the rest of the underlay only through their gateway link.  A
// router outside every leaf is a unit of its own, so a Waxman world, which
// has no leaves, splits router by router.  Units go onto shards largest
// first (ties by unit id), each onto the shard with the fewest peers so
// far (ties by shard index), so the fullest shard holds at most the mean
// plus the largest unit.
//
// The lookahead is the smallest one-way latency between two peers on
// different shards, minus 1 µs for the float rounding between that
// minimum and the per-pair latency the transport converts.  Between
// leaves d(a, b) = up(a) + core(attach) + up(b) (net/routing.h), so each
// leaf contributes only its peer with the smallest access + up, and the
// floor is a minimum over pairs of leaves: O(leaves²), never
// O(routers²).  Pairs with a core-router unit keep the cruder global bound
// (the two smallest access latencies plus the cheapest underlay link), as
// the core may hold thousands of routers.
#pragma once

#include <cstdint>
#include <vector>

#include "overlay/population.h"
#include "sim/shard_set.h"

namespace groupcast::core {

struct ShardPartition {
  /// The shard of every peer, indexed by PeerId.
  std::vector<std::uint32_t> peer_shard;
  /// The conservative lookahead of this split: sim::kUnboundedLookahead
  /// when every peer sits on one shard.
  std::int64_t lookahead_us = sim::kUnboundedLookahead;
};

/// Splits `population` over `num_shards` (>= 1) shards.  A pure function
/// of the world: the same population gives the same partition.
ShardPartition partition_shards(const overlay::PeerPopulation& population,
                                std::size_t num_shards);

}  // namespace groupcast::core
