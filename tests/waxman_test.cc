// Tests for the Waxman underlay generator.
#include <gtest/gtest.h>

#include <numbers>

#include "net/routing.h"
#include "net/topology.h"
#include "overlay/population.h"
#include "util/require.h"

namespace groupcast {
namespace {

// ------------------------------------------------------------------ Waxman

TEST(Waxman, AlwaysConnectedAcrossSeeds) {
  net::WaxmanConfig config;
  config.routers = 120;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    const auto topo = net::generate_waxman(config, rng);
    EXPECT_TRUE(topo.is_connected()) << "seed " << seed;
    EXPECT_EQ(topo.router_count(), 120u);
  }
}

TEST(Waxman, AllRoutersAreStubAttachable) {
  net::WaxmanConfig config;
  config.routers = 60;
  util::Rng rng(3);
  const auto topo = net::generate_waxman(config, rng);
  EXPECT_EQ(topo.stub_routers().size(), 60u);
}

TEST(Waxman, LinkLatencyMatchesGeometry) {
  // Latencies are plane distances, so they obey the triangle inequality
  // and are bounded by the plane diagonal.
  net::WaxmanConfig config;
  config.routers = 80;
  util::Rng rng(5);
  const auto topo = net::generate_waxman(config, rng);
  const double diagonal = net::kWaxmanPlaneSideMs * std::numbers::sqrt2;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_GT(topo.link(l).latency_ms, 0.0);
    EXPECT_LE(topo.link(l).latency_ms, diagonal + 1e-9);
  }
}

TEST(Waxman, ShortLinksDominateLongOnes) {
  // The Waxman kernel decays with distance: short links must outnumber
  // long ones.
  net::WaxmanConfig config;
  config.routers = 150;
  util::Rng rng(7);
  const auto topo = net::generate_waxman(config, rng);
  std::size_t short_links = 0, long_links = 0;
  const double threshold = net::kWaxmanPlaneSideMs * std::numbers::sqrt2 / 2.0;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    (topo.link(l).latency_ms < threshold ? short_links : long_links) += 1;
  }
  EXPECT_GT(short_links, 3 * long_links);
}

TEST(Waxman, RoutableAndUsableAsPopulationSubstrate) {
  net::WaxmanConfig config;
  config.routers = 60;
  util::Rng rng(9);
  const auto topo = net::generate_waxman(config, rng);
  const net::IpRouting routing(topo);
  overlay::PopulationConfig pop;
  pop.peer_count = 64;
  pop.gnp.landmarks = 6;
  const overlay::PeerPopulation population(routing, pop, rng);
  EXPECT_GT(population.latency_ms(0, 1), 0.0);
}

TEST(Waxman, RejectsBadParameters) {
  util::Rng rng(1);
  net::WaxmanConfig bad;
  bad.routers = 1;
  EXPECT_THROW(net::generate_waxman(bad, rng), PreconditionError);
}

}  // namespace
}  // namespace groupcast
