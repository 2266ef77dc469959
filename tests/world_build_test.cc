// Golden hashes of the world build: the GNP embedding and the IP routing
// tables must come out byte-identical however the work is scheduled.  The
// pinned values were recorded from the serial implementation; any change
// to a floating-point operation order, an RNG draw or a tie-break moves
// them.
#include <gtest/gtest.h>

#include <span>

#include "coords/gnp.h"
#include "net/routing.h"
#include "net/topology.h"
#include "test_helpers.h"

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
  const coords::GnpEmbedding gnp(peers, oracle, rng);
  testing::Fnv64 hash;
  hash.add(std::span<const coords::Coord>(gnp.coordinates()));
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

}  // namespace
}  // namespace groupcast
