// Golden hashes of the world build: the GNP embedding and the IP routing
// tables must come out byte-identical however the work is scheduled.  The
// pinned values were recorded from the serial implementation; any change
// to a floating-point operation order, an RNG draw or a tie-break moves
// them.  The middleware's build, which fits the coordinates alongside the
// joins, must equal the same world built one layer after another.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "coords/gnp.h"
#include "core/middleware.h"
#include "net/routing.h"
#include "net/topology.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "util/parallel.h"

namespace groupcast {
namespace {

struct EmbeddingDigest {
  std::uint64_t coords_hash;
  std::uint64_t next_draw;
};

/// Embeds the ~2000 peers of a SmallWorld with a fresh generator; returns
/// the hash of the raw coordinate bytes and the generator's next draw.
EmbeddingDigest embed_small_world() {
  const std::size_t peers = 2000;
  testing::SmallWorld world(peers, 61);
  const auto& population = *world.population;
  const coords::LatencyOracle oracle = [&population](std::size_t a,
                                                     std::size_t b) {
    return population.latency_ms(static_cast<overlay::PeerId>(a),
                                 static_cast<overlay::PeerId>(b));
  };
  util::Rng rng(67);
  const auto coords = coords::GnpLandmarks(peers, oracle, rng).fit_all();
  testing::Fnv64 hash;
  hash.add(std::span<const coords::Coord>(coords));
  return {hash.value(), rng()};
}

std::uint64_t routing_hash(const net::IpRouting& routing) {
  testing::Fnv64 hash;
  const auto n =
      static_cast<net::RouterId>(routing.topology().router_count());
  for (net::RouterId a = 0; a < n; ++a) {
    for (net::RouterId b = 0; b < n; ++b) {
      hash.add(routing.distance_ms(a, b));
      if (a != b) hash.add(routing.next_hop(a, b));
    }
  }
  return hash.value();
}

TEST(GnpGolden, NoiselessEmbeddingIsByteIdentical) {
  const auto digest = embed_small_world();
  EXPECT_EQ(digest.coords_hash, 0x9259bbb74fad66aeULL);
  EXPECT_EQ(digest.next_draw, 0xbc7fc551db50c908ULL);
}

TEST(RoutingGolden, SmallWorldTablesAreByteIdentical) {
  const testing::SmallWorld world(2000, 61);
  EXPECT_EQ(routing_hash(*world.routing), 0x5c7b8a68b1f3b217ULL);
}

TEST(RoutingGolden, TransitStubTablesAreByteIdentical) {
  // The default transit-stub shape: 592 routers, enough sources to split
  // across every worker.
  util::Rng rng(71);
  const auto underlay = net::generate_transit_stub({}, rng);
  ASSERT_EQ(underlay.router_count(), 592u);
  EXPECT_EQ(routing_hash(net::IpRouting(underlay)), 0x38f7839a83ff81a4ULL);
}

/// What a built world leaves behind: its coordinate bytes, every Nbr(p)
/// span with its out-link count, the host cache's entries and one further
/// query of a copy of it, and the generator's next draw.
struct WorldDigest {
  std::uint64_t coords_hash = 0;
  std::uint64_t neighbors_hash = 0;
  std::vector<overlay::PeerId> cache_entries;
  std::vector<overlay::PeerId> next_candidates;
  std::uint64_t next_draw = 0;
};

void expect_same_world(const WorldDigest& actual,
                       const WorldDigest& expected) {
  EXPECT_EQ(actual.coords_hash, expected.coords_hash);
  EXPECT_EQ(actual.neighbors_hash, expected.neighbors_hash);
  EXPECT_EQ(actual.cache_entries, expected.cache_entries);
  EXPECT_EQ(actual.next_candidates, expected.next_candidates);
  EXPECT_EQ(actual.next_draw, expected.next_draw);
}

WorldDigest digest_of(const overlay::PeerPopulation& population,
                      const overlay::OverlayGraph& graph,
                      const overlay::HostCacheServer& cache, util::Rng rng) {
  WorldDigest digest;
  testing::Fnv64 coords;
  for (const auto& peer : population.peers()) coords.add(peer.coord);
  digest.coords_hash = coords.value();
  testing::Fnv64 neighbors;
  for (overlay::PeerId p = 0; p < graph.peer_count(); ++p) {
    const auto nbrs = graph.neighbors(p);
    neighbors.add(graph.out_neighbors(p).size());
    neighbors.add(std::span<const overlay::PeerId>(nbrs.begin(), nbrs.size()));
  }
  digest.neighbors_hash = neighbors.value();
  digest.cache_entries = cache.entries();
  overlay::HostCacheServer probe = cache;
  digest.next_candidates = probe.bootstrap_candidates(0);
  digest.next_draw = rng();
  return digest;
}

/// The GroupCastMiddleware build, one public layer call after another and
/// without overlap, as the benchmark's traced build makes it.
WorldDigest layered_world(const core::MiddlewareConfig& config) {
  util::Rng rng = util::Rng::for_stream(config.seed, 0);
  const auto underlay = net::generate_transit_stub(
      net::scale_config_for_peers(config.peer_count, config.peers_per_router),
      rng);
  const net::IpRouting routing(underlay);
  auto population_config = config.population;
  population_config.peer_count = config.peer_count;
  const overlay::PeerPopulation population(routing, population_config, rng);
  overlay::OverlayGraph graph(config.peer_count);
  overlay::HostCacheServer cache(population, config.host_cache, rng);
  overlay::GroupCastBootstrap bootstrap(population, graph, cache,
                                        config.bootstrap, rng);
  std::vector<overlay::PeerId> order(config.peer_count);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const auto peer : order) bootstrap.join(peer);
  graph.compact();
  return digest_of(population, graph, cache, rng);
}

WorldDigest snapshot_world(const core::MiddlewareConfig& config) {
  const auto snapshot = core::GroupCastMiddleware::make_snapshot(config);
  // The layered build has no connectivity repair step.
  EXPECT_EQ(snapshot->repair_edges, 0u);
  return digest_of(*snapshot->population, *snapshot->graph,
                   *snapshot->host_cache, snapshot->rng);
}

TEST(WorldBuild, OverlappedBuildMatchesLayeredBuild) {
  // Three worlds with a full host cache (1000 entries) and one without.
  const std::pair<std::size_t, std::uint64_t> worlds[] = {
      {3000, 7001}, {3000, 7002}, {3000, 7003}, {500, 7}};
  for (const auto& [peers, seed] : worlds) {
    SCOPED_TRACE(::testing::Message() << peers << " peers, seed " << seed);
    core::MiddlewareConfig config;
    config.peer_count = peers;
    config.seed = seed;
    const WorldDigest layered = layered_world(config);
    EXPECT_EQ(layered.cache_entries.size(), std::min<std::size_t>(peers, 1000));
    expect_same_world(snapshot_world(config), layered);
    // On a parallel_for worker the build fits every coordinate inline
    // before the joins.
    WorldDigest nested;
    bool on_worker = false;
    util::parallel_for(
        2, 1,
        [&](std::size_t i) {
          if (i != 0) return;
          on_worker = util::in_parallel_worker();
          nested = snapshot_world(config);
        },
        2);
    EXPECT_TRUE(on_worker);
    expect_same_world(nested, layered);
  }
}

}  // namespace
}  // namespace groupcast
