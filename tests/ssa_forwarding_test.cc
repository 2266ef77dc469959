// Tests of the one SSA/NSSA forwarding decision, core::select_forward_targets:
// its RNG contract (which calls draw, and when the resource-level memo is
// sampled), and a differential test of its two callers — the
// AdvertisementEngine that the paper's figures run on and a GroupCastNode
// flood over the Transport — on the same world and from the same
// rendezvous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/advertisement.h"
#include "core/node.h"
#include "core/utility.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

// ------------------------------------------------------------ RNG contract

/// A forwarder (peer 0) with twelve neighbours, one of them the sender.
struct Forwarder {
  testing::SmallWorld world{64, 17};
  const PeerId from = 0;
  const PeerId exclude = 5;
  const std::vector<PeerId> neighbors{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

  std::vector<PeerId> select(const AdvertisementOptions& options,
                             std::optional<double>& memo, util::Rng& rng) {
    return select_forward_targets(options, *world.population, from,
                                  neighbors, exclude, memo, rng);
  }

  /// The neighbours minus the sender, in neighbour order.
  std::vector<PeerId> pool() const {
    std::vector<PeerId> out;
    for (const auto n : neighbors) {
      if (n != exclude) out.push_back(n);
    }
    return out;
  }

  /// The subset size SSA forwards to: ceil(fraction * pool), at least 1.
  std::size_t want(const AdvertisementOptions& options) const {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               options.forward_fraction *
               static_cast<double>(pool().size()))));
  }

  /// What the utility path must return when its only draws are the
  /// weighted sample at `level`, drawn from `rng`.
  std::vector<PeerId> weighted_pick(double level, std::size_t want,
                                    util::Rng& rng) const {
    const auto pool_ids = pool();
    std::vector<Candidate> candidates;
    for (const auto n : pool_ids) {
      candidates.push_back(
          Candidate{world.population->info(n).capacity,
                    world.population->coord_distance_ms(from, n)});
    }
    std::vector<PeerId> out;
    for (const auto i : weighted_sample_without_replacement(
             selection_preferences(level, candidates), want, rng)) {
      out.push_back(pool_ids[i]);
    }
    return out;
  }
};

/// True if both generators are at the same point of their stream.
bool same_state(util::Rng a, util::Rng b) { return a() == b(); }

TEST(SsaForwardingRng, NssaDrawsNothing) {
  Forwarder f;
  AdvertisementOptions options;
  options.scheme = AnnouncementScheme::kNssa;
  util::Rng rng(3);
  const util::Rng before = rng;
  std::optional<double> memo;
  EXPECT_EQ(f.select(options, memo, rng), f.pool());
  EXPECT_TRUE(same_state(rng, before));
  EXPECT_FALSE(memo.has_value());
}

TEST(SsaForwardingRng, WholePoolWantedDrawsNothing) {
  Forwarder f;
  for (const auto scheme :
       {AnnouncementScheme::kSsaRandom, AnnouncementScheme::kSsaUtility}) {
    AdvertisementOptions options;
    options.scheme = scheme;
    options.forward_fraction = 1.0;  // want == pool size
    util::Rng rng(4);
    const util::Rng before = rng;
    std::optional<double> memo;
    EXPECT_EQ(f.select(options, memo, rng), f.pool()) << to_string(scheme);
    EXPECT_TRUE(same_state(rng, before)) << to_string(scheme);
    EXPECT_FALSE(memo.has_value()) << to_string(scheme);
  }
}

TEST(SsaForwardingRng, PinnedResourceLevelDrawsNothing) {
  Forwarder f;
  AdvertisementOptions options;
  options.pinned_resource_level = 0.8;
  util::Rng rng(5);
  util::Rng expected_rng = rng;
  std::optional<double> memo;
  const auto picked = f.select(options, memo, rng);
  // The only draws are the weighted sample itself.
  EXPECT_EQ(picked, f.weighted_pick(0.8, f.want(options), expected_rng));
  EXPECT_TRUE(same_state(rng, expected_rng));
  ASSERT_TRUE(memo.has_value());
  EXPECT_DOUBLE_EQ(*memo, clamp_resource_level(0.8));
}

TEST(SsaForwardingRng, UtilityPathFillsTheMemoOnceAndNeverResamples) {
  Forwarder f;
  const AdvertisementOptions options;  // kSsaUtility, fraction 0.35
  const auto want = f.want(options);
  ASSERT_LT(want, f.pool().size());
  util::Rng rng(6);
  util::Rng expected_rng = rng;
  std::optional<double> memo;

  // First call: the memo is sampled from the stream, then the sample.
  const auto first = f.select(options, memo, rng);
  const double level = clamp_resource_level(
      f.world.population->sampled_resource_level(
          f.from, overlay::PeerPopulation::kResourceSample, expected_rng));
  EXPECT_EQ(first, f.weighted_pick(level, want, expected_rng));
  EXPECT_TRUE(same_state(rng, expected_rng));
  ASSERT_TRUE(memo.has_value());
  EXPECT_DOUBLE_EQ(*memo, level);

  // Later calls reuse the memo: only the weighted sample draws.
  const auto second = f.select(options, memo, rng);
  EXPECT_EQ(second, f.weighted_pick(level, want, expected_rng));
  EXPECT_TRUE(same_state(rng, expected_rng));
  EXPECT_DOUBLE_EQ(*memo, level);

  // A filled memo is taken as given, whatever it holds.
  memo = 0.9;
  const auto third = f.select(options, memo, rng);
  EXPECT_EQ(third, f.weighted_pick(0.9, want, expected_rng));
  EXPECT_TRUE(same_state(rng, expected_rng));
  EXPECT_DOUBLE_EQ(*memo, 0.9);
}

// --------------------------------------------- engine vs node runtime

/// One announcement's outcome, in the terms both callers can report.
struct Flood {
  std::vector<char> reached;  // indexed by peer
  std::size_t messages = 0;

  double receiving_rate() const {
    std::size_t count = 0;
    for (const char r : reached) count += r != 0 ? 1 : 0;
    return static_cast<double>(count) / static_cast<double>(reached.size());
  }
};

/// A 300-peer joined overlay; floods it from `rendezvous` once through the
/// engine and once through a node deployment over a lossless Transport
/// (no churn, heartbeats off: NodeOptions' defaults).
struct DifferentialWorld {
  static constexpr std::size_t kPeers = 300;
  static constexpr PeerId kRendezvous = 0;
  testing::SmallWorld world;
  overlay::OverlayGraph graph{kPeers};

  explicit DifferentialWorld(std::uint64_t seed) : world(kPeers, seed) {
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    for (PeerId p = 0; p < kPeers; ++p) bootstrap.join(p);
  }

  Flood engine_flood(const AdvertisementOptions& options) {
    sim::Simulator simulator;
    AdvertisementEngine engine(simulator, *world.population, graph, options,
                               world.rng);
    const auto state = engine.announce(kRendezvous);
    Flood flood;
    for (PeerId p = 0; p < kPeers; ++p) {
      flood.reached.push_back(state.received(p) ? 1 : 0);
    }
    flood.messages = state.messages;
    return flood;
  }

  Flood node_flood(const AdvertisementOptions& options) {
    sim::Simulator simulator;
    Transport transport(simulator, *world.population, TransportOptions{},
                        world.rng);
    NodeOptions node_options;
    node_options.advertisement = options;
    std::vector<std::unique_ptr<GroupCastNode>> nodes;
    for (PeerId p = 0; p < kPeers; ++p) {
      nodes.push_back(std::make_unique<GroupCastNode>(
          p, transport, graph, node_options, world.rng));
      nodes.back()->start();
    }
    constexpr GroupId kGroup = 1;
    nodes[kRendezvous]->create_group(kGroup);
    simulator.run();
    Flood flood;
    for (const auto& node : nodes) {
      flood.reached.push_back(node->has_advertisement(kGroup) ? 1 : 0);
    }
    flood.messages = transport.stats().of(MessageKind::kAdvertisement);
    return flood;
  }
};

struct MeanSpread {
  double mean = 0.0;
  double stddev = 0.0;
};

MeanSpread mean_spread(const std::vector<double>& values) {
  MeanSpread out;
  for (const double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  for (const double v : values) out.stddev += (v - out.mean) * (v - out.mean);
  out.stddev = std::sqrt(out.stddev / static_cast<double>(values.size() - 1));
  return out;
}

class EngineVsNode : public ::testing::TestWithParam<AnnouncementScheme> {};

// NSSA draws no RNG, so the two floods must match message for message; the
// SSA schemes draw from different streams in the two callers, so their
// receiving rates must agree in the mean over 32 seeds, within the
// seed-to-seed spread.  TTL 3 keeps NSSA's reach short of the whole
// overlay (about 96%), so which copy arrives first decides who is reached
// and the reach sets are a real comparison.
TEST_P(EngineVsNode, FloodsAgree) {
  AdvertisementOptions options;
  options.scheme = GetParam();
  options.ttl = 3;
  constexpr std::uint64_t kSeeds = 32;
  std::vector<double> engine_rates;
  std::vector<double> node_rates;
  std::vector<double> engine_messages;
  std::vector<double> node_messages;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    DifferentialWorld w(seed);
    const auto engine = w.engine_flood(options);
    const auto node = w.node_flood(options);
    if (options.scheme == AnnouncementScheme::kNssa) {
      EXPECT_EQ(engine.reached, node.reached) << "seed " << seed;
      EXPECT_EQ(engine.messages, node.messages) << "seed " << seed;
    }
    engine_rates.push_back(engine.receiving_rate());
    node_rates.push_back(node.receiving_rate());
    engine_messages.push_back(static_cast<double>(engine.messages));
    node_messages.push_back(static_cast<double>(node.messages));
  }
  const auto engine_rate = mean_spread(engine_rates);
  const auto node_rate = mean_spread(node_rates);
  EXPECT_LE(std::abs(engine_rate.mean - node_rate.mean),
            std::max(engine_rate.stddev, node_rate.stddev))
      << "engine " << engine_rate.mean << " (sd " << engine_rate.stddev
      << "), node " << node_rate.mean << " (sd " << node_rate.stddev << ")";
  const auto engine_msgs = mean_spread(engine_messages);
  const auto node_msgs = mean_spread(node_messages);
  EXPECT_LE(std::abs(engine_msgs.mean - node_msgs.mean),
            std::max(engine_msgs.stddev, node_msgs.stddev))
      << "engine " << engine_msgs.mean << " (sd " << engine_msgs.stddev
      << "), node " << node_msgs.mean << " (sd " << node_msgs.stddev << ")";
  // Not vacuous: the flood left the rendezvous in every run.
  EXPECT_GT(engine_rate.mean, 0.1);
  EXPECT_GT(node_rate.mean, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, EngineVsNode,
    ::testing::Values(AnnouncementScheme::kNssa,
                      AnnouncementScheme::kSsaRandom,
                      AnnouncementScheme::kSsaUtility),
    [](const ::testing::TestParamInfo<AnnouncementScheme>& info) {
      switch (info.param) {
        case AnnouncementScheme::kNssa:
          return "Nssa";
        case AnnouncementScheme::kSsaRandom:
          return "SsaRandom";
        case AnnouncementScheme::kSsaUtility:
          return "SsaUtility";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace groupcast::core
