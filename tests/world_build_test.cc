// Golden hashes of the world build: the GNP embedding and the IP routing
// tables must come out byte-identical however the work is scheduled.  The
// pinned values were recorded from the serial implementation; any change
// to a floating-point operation order, an RNG draw or a tie-break moves
// them.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "coords/gnp.h"
#include "net/routing.h"
#include "net/topology.h"
#include "test_helpers.h"

namespace groupcast {
namespace {

/// FNV-1a, 64-bit, over raw object bytes.
class Fnv64 {
 public:
  template <typename T>
  void add(std::span<const T> items) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(items.data());
    for (std::size_t i = 0; i < items.size_bytes(); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(const T& item) {
    add(std::span<const T>(&item, 1));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct EmbeddingDigest {
  std::uint64_t coords_hash;
  std::uint64_t next_draw;
};

/// Embeds the ~2000 peers of a SmallWorld with a fresh generator; returns
/// the hash of the raw coordinate bytes and the generator's next draw.
EmbeddingDigest embed_small_world(double noise) {
  const std::size_t peers = 2000;
  testing::SmallWorld world(peers, 61);
  const auto& population = *world.population;
  const coords::LatencyOracle oracle = [&population](std::size_t a,
                                                     std::size_t b) {
    return population.latency_ms(static_cast<overlay::PeerId>(a),
                                 static_cast<overlay::PeerId>(b));
  };
  coords::GnpOptions options;
  options.measurement_noise = noise;
  util::Rng rng(67);
  const coords::GnpEmbedding gnp(peers, oracle, rng, options);
  Fnv64 hash;
  hash.add(std::span<const coords::Coord>(gnp.coordinates()));
  return {hash.value(), rng()};
}

std::uint64_t routing_hash(const net::IpRouting& routing) {
  Fnv64 hash;
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
  const auto digest = embed_small_world(0.0);
  EXPECT_EQ(digest.coords_hash, 0xcb82ee7a17da546eULL);
  EXPECT_EQ(digest.next_draw, 0xbc7fc551db50c908ULL);
}

TEST(GnpGolden, NoisyEmbeddingIsByteIdentical) {
  const auto digest = embed_small_world(0.1);
  EXPECT_EQ(digest.coords_hash, 0x780226dcc29bb3ccULL);
  EXPECT_EQ(digest.next_draw, 0x95f079ab812bb184ULL);
}

TEST(RoutingGolden, SmallWorldTablesAreByteIdentical) {
  const testing::SmallWorld world(2000, 61);
  EXPECT_EQ(routing_hash(*world.routing), 0xcc5be86b2a27d0efULL);
}

TEST(RoutingGolden, TransitStubTablesAreByteIdentical) {
  // The default transit-stub shape: 592 routers, enough sources to split
  // across every worker.
  util::Rng rng(71);
  const auto underlay = net::generate_transit_stub({}, rng);
  ASSERT_EQ(underlay.router_count(), 592u);
  EXPECT_EQ(routing_hash(net::IpRouting(underlay)), 0x352b7ff8529f71d0ULL);
}

}  // namespace
}  // namespace groupcast
