// Tests for the Waxman underlay generator and the Weibull session model.
#include <gtest/gtest.h>

#include <cmath>

#include "net/routing.h"
#include "net/topology.h"
#include "overlay/churn.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "util/require.h"
#include "util/stats.h"

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

// ----------------------------------------------------------------- Weibull

TEST(Weibull, ShapeOneIsExponential) {
  util::Rng rng(11);
  util::Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.weibull(1.0, 3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), 3.0, 0.15);
}

TEST(Weibull, HeavyTailForSmallShape) {
  util::Rng rng(13);
  util::Summary s;
  const double shape = 0.5;
  const double scale = 1.0;
  for (int i = 0; i < 100000; ++i) s.add(rng.weibull(shape, scale));
  // Mean of Weibull(0.5, 1) = Gamma(3) = 2; stddev far above the mean.
  EXPECT_NEAR(s.mean(), 2.0, 0.15);
  EXPECT_GT(s.stddev(), s.mean());
}

TEST(Weibull, RejectsBadParameters) {
  util::Rng rng(1);
  EXPECT_THROW(rng.weibull(0.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.weibull(1.0, 0.0), PreconditionError);
}

TEST(WeibullChurn, MeanSessionPreservedAcrossShapes) {
  // Departure times minus arrival times must average mean_session for both
  // the exponential and heavy-tailed settings.
  for (const double shape : {1.0, 0.6}) {
    testing::SmallWorld world(64, 17);
    overlay::OverlayGraph graph(64);
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    sim::Simulator simulator;
    overlay::ChurnOptions options;
    options.mean_interarrival = sim::SimTime::seconds(0.01);
    options.mean_session = sim::SimTime::seconds(100.0);
    options.session_shape = shape;
    options.failure_fraction = 0.0;
    overlay::ChurnModel churn(simulator, bootstrap, options, world.rng);
    std::vector<overlay::PeerId> order;
    for (overlay::PeerId p = 0; p < 64; ++p) order.push_back(p);
    churn.start(order);
    simulator.run();
    EXPECT_EQ(churn.stats().graceful_leaves, 64u) << "shape " << shape;
    // All sessions ended; mean session length is bounded sanely (64
    // samples: generous tolerance).
    EXPECT_GT(simulator.now().as_seconds(), 50.0);
  }
}

}  // namespace
}  // namespace groupcast
