// Tests for the deployable middleware runtime: Transport + GroupCastNode.
// A whole population of nodes is stood up and exercised purely through
// message passing on the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "core/node.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::PeerId;

// ---------------------------------------------------------------- transport

TEST(Transport, DeliversAfterLatency) {
  testing::SmallWorld world(8, 3);
  sim::Simulator simulator;
  util::Rng rng(1);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  sim::SimTime delivered_at = sim::SimTime::zero();
  transport.register_node(1, [&](const Envelope& e) {
    EXPECT_EQ(e.from, 0u);
    EXPECT_EQ(e.to, 1u);
    delivered_at = simulator.now();
  });
  transport.send(0, 1, JoinAckMsg{7});
  simulator.run();
  EXPECT_NEAR(delivered_at.as_millis(), world.population->latency_ms(0, 1),
              0.01);
  EXPECT_EQ(transport.messages_sent(), 1u);
  EXPECT_EQ(transport.messages_lost(), 0u);
}

TEST(Transport, DropsToUnregisteredReceiver) {
  testing::SmallWorld world(8, 5);
  sim::Simulator simulator;
  util::Rng rng(2);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  transport.send(0, 1, JoinAckMsg{1});  // nobody listening: no crash
  EXPECT_NO_THROW(simulator.run());
}

TEST(Transport, LossProbabilityDropsShare) {
  testing::SmallWorld world(8, 7);
  sim::Simulator simulator;
  util::Rng rng(3);
  TransportOptions options;
  options.loss_probability = 0.5;
  Transport transport(simulator, *world.population, options, rng);
  int received = 0;
  transport.register_node(1, [&](const Envelope&) { ++received; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) transport.send(0, 1, JoinAckMsg{1});
  simulator.run();
  EXPECT_NEAR(received / static_cast<double>(n), 0.5, 0.05);
  EXPECT_EQ(transport.messages_lost(), n - static_cast<std::size_t>(received));
}

TEST(Transport, RejectsDoubleRegistrationAndLoopback) {
  testing::SmallWorld world(8, 9);
  sim::Simulator simulator;
  util::Rng rng(4);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  transport.register_node(0, [](const Envelope&) {});
  EXPECT_THROW(transport.register_node(0, [](const Envelope&) {}),
               PreconditionError);
  EXPECT_THROW(transport.send(0, 0, JoinAckMsg{1}), PreconditionError);
}

TEST(Transport, StatsClassifyMessageKinds) {
  testing::SmallWorld world(8, 11);
  sim::Simulator simulator;
  util::Rng rng(5);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  transport.send(0, 1, AdvertiseMsg{});
  transport.send(0, 1, RippleQueryMsg{});
  transport.send(0, 1, RippleHitMsg{});
  transport.send(0, 1, JoinMsg{});
  transport.send(0, 1, JoinAckMsg{});
  transport.send(0, 1, DataMsg{});
  transport.send(0, 1, LeaveMsg{});
  EXPECT_EQ(transport.stats().of(MessageKind::kAdvertisement), 1u);
  EXPECT_EQ(transport.stats().of(MessageKind::kRippleSearch), 1u);
  EXPECT_EQ(transport.stats().of(MessageKind::kRippleResponse), 1u);
  EXPECT_EQ(transport.stats().of(MessageKind::kSubscribeJoin), 2u);
  EXPECT_EQ(transport.stats().of(MessageKind::kSubscribeAck), 1u);
  EXPECT_EQ(transport.stats().of(MessageKind::kPayload), 1u);
  EXPECT_EQ(transport.stats().total(), 7u);
}

// ------------------------------------------------------------ node fixture

TransportOptions lossy_transport(double loss) {
  TransportOptions options;
  options.loss_probability = loss;
  return options;
}

/// A full node deployment over a joined GroupCast overlay.
struct NodeDeployment {
  testing::SmallWorld world;
  overlay::OverlayGraph graph;
  sim::Simulator simulator;
  Transport transport;
  std::vector<std::unique_ptr<GroupCastNode>> nodes;

  explicit NodeDeployment(std::size_t peers = 64, std::uint64_t seed = 21,
                          double loss = 0.0, NodeOptions options = {})
      : world(peers, seed),
        graph(peers),
        transport(simulator, *world.population,
                  lossy_transport(loss), world.rng) {
    overlay::HostCacheServer cache(*world.population,
                                   overlay::HostCacheOptions{}, world.rng);
    overlay::GroupCastBootstrap bootstrap(*world.population, graph, cache,
                                          overlay::BootstrapOptions{},
                                          world.rng);
    for (PeerId p = 0; p < peers; ++p) bootstrap.join(p);
    for (PeerId p = 0; p < peers; ++p) {
      nodes.push_back(std::make_unique<GroupCastNode>(
          p, transport, graph, options, world.rng));
      nodes.back()->start();
    }
  }
};

TEST(Node, CreateGroupSpreadsAdvertisement) {
  NodeDeployment d(48, 23);
  d.nodes[0]->create_group(1);
  d.simulator.run();
  std::size_t holders = 0;
  for (const auto& node : d.nodes) {
    if (node->has_advertisement(1)) ++holders;
  }
  EXPECT_GT(holders, 24u);  // most of a 48-peer overlay
}

TEST(Node, SubscribeViaReversePathBuildsConsistentTree) {
  NodeDeployment d(48, 29);
  d.nodes[0]->create_group(1);
  d.simulator.run();
  std::map<GroupId, int> results;
  for (const PeerId s : {5u, 15u, 25u, 35u}) {
    d.nodes[s]->on_subscribe_result(
        [&results, s](GroupId, bool ok) { results[s] += ok ? 1 : 0; });
    d.nodes[s]->subscribe(1);
  }
  d.simulator.run();
  for (const PeerId s : {5u, 15u, 25u, 35u}) {
    EXPECT_TRUE(d.nodes[s]->is_subscribed(1)) << "peer " << s;
    // Parent/child relationships are mutual.
    const auto parent = d.nodes[s]->tree_parent(1);
    if (parent != s) {
      const auto kids = d.nodes[parent]->tree_children(1);
      EXPECT_NE(std::find(kids.begin(), kids.end(), s), kids.end());
    }
  }
}

TEST(Node, PublishReachesAllSubscribersExactlyOnce) {
  NodeDeployment d(64, 31);
  d.nodes[0]->create_group(9);
  d.simulator.run();
  std::vector<PeerId> subscribers{4, 9, 16, 25, 36, 49};
  for (const auto s : subscribers) d.nodes[s]->subscribe(9);
  d.simulator.run();
  std::map<PeerId, int> deliveries;
  for (const auto s : subscribers) {
    d.nodes[s]->on_data([&deliveries, s](GroupId, std::uint64_t id, PeerId) {
      EXPECT_EQ(id, 777u);
      ++deliveries[s];
    });
  }
  d.nodes[0]->publish(9, 777);
  d.simulator.run();
  for (const auto s : subscribers) {
    EXPECT_EQ(deliveries[s], 1) << "peer " << s;
  }
}

TEST(Node, AnyMemberCanPublish) {
  NodeDeployment d(64, 37);
  d.nodes[0]->create_group(2);
  d.simulator.run();
  std::vector<PeerId> subscribers{7, 21, 42};
  for (const auto s : subscribers) d.nodes[s]->subscribe(2);
  d.simulator.run();
  // Peer 21 (a leaf) speaks; 7, 42 and the rendezvous all hear it.
  std::map<PeerId, int> deliveries;
  for (const PeerId listener : {0u, 7u, 42u}) {
    d.nodes[listener]->on_data(
        [&deliveries, listener](GroupId, std::uint64_t, PeerId origin) {
          EXPECT_EQ(origin, 21u);
          ++deliveries[listener];
        });
  }
  d.nodes[21]->publish(2, 1);
  d.simulator.run();
  EXPECT_EQ(deliveries[0], 1);
  EXPECT_EQ(deliveries[7], 1);
  EXPECT_EQ(deliveries[42], 1);
}

TEST(Node, SubscriberWithoutAdvertUsesRippleSearch) {
  // Tiny TTL so part of the overlay misses the advertisement.
  NodeOptions options;
  options.advertisement.ttl = 2;
  NodeDeployment d(64, 41, 0.0, options);
  auto& creator = *d.nodes[0];
  creator.create_group(3);
  d.simulator.run();
  // Find a peer without the advert whose neighbourhood holds one.
  for (PeerId p = 1; p < 64; ++p) {
    if (d.nodes[p]->has_advertisement(3)) continue;
    bool near_holder = false;
    for (const auto n : d.graph.neighbors(p)) {
      if (d.nodes[n]->has_advertisement(3)) near_holder = true;
    }
    if (!near_holder) continue;
    d.nodes[p]->subscribe(3);
    d.simulator.run();
    EXPECT_TRUE(d.nodes[p]->is_subscribed(3)) << "peer " << p;
    return;
  }
  GTEST_SKIP() << "advertisement reached everyone";
}

TEST(Node, SubscribeTimesOutWhenUnreachable) {
  NodeDeployment d(48, 43);
  // Nobody created the group: searches find nothing, timeout must fire.
  bool reported = false, ok = true;
  d.nodes[5]->on_subscribe_result([&](GroupId g, bool success) {
    EXPECT_EQ(g, 77u);
    reported = true;
    ok = success;
  });
  d.nodes[5]->subscribe(77);
  d.simulator.run();
  EXPECT_TRUE(reported);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(d.nodes[5]->is_subscribed(77));
}

TEST(Node, UnsubscribeLeafDetachesAndStopsDelivery) {
  NodeDeployment d(64, 47);
  d.nodes[0]->create_group(5);
  d.simulator.run();
  d.nodes[10]->subscribe(5);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[10]->is_subscribed(5));
  const auto parent = d.nodes[10]->tree_parent(5);
  d.nodes[10]->unsubscribe(5);
  d.simulator.run();
  EXPECT_FALSE(d.nodes[10]->on_tree(5));
  const auto kids = d.nodes[parent]->tree_children(5);
  EXPECT_EQ(std::find(kids.begin(), kids.end(), 10u), kids.end());
  int deliveries = 0;
  d.nodes[10]->on_data([&](GroupId, std::uint64_t, PeerId) { ++deliveries; });
  d.nodes[0]->publish(5, 123);
  d.simulator.run();
  EXPECT_EQ(deliveries, 0);
}

TEST(Node, RelayChainCollapsesAfterLastChildLeaves) {
  NodeDeployment d(64, 53);
  d.nodes[0]->create_group(6);
  d.simulator.run();
  d.nodes[30]->subscribe(6);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[30]->is_subscribed(6));
  // Record the relay chain above peer 30.
  std::vector<PeerId> chain;
  PeerId at = 30;
  while (at != 0u) {
    at = d.nodes[at]->tree_parent(6);
    if (at == 30u) break;
    chain.push_back(at);
  }
  d.nodes[30]->unsubscribe(6);
  d.simulator.run();
  // Relays that served only peer 30 must have left the tree again.
  for (const auto relay : chain) {
    if (relay == 0u) continue;
    if (d.nodes[relay]->is_subscribed(6)) continue;
    EXPECT_TRUE(d.nodes[relay]->tree_children(6).empty() ||
                d.nodes[relay]->on_tree(6));
  }
}

TEST(Node, UnsubscribedInteriorPeerKeepsRelaying) {
  NodeDeployment d(64, 47);
  d.nodes[0]->create_group(5);
  d.simulator.run();
  std::vector<PeerId> subscribers;
  for (PeerId p = 1; p < d.nodes.size(); p += 3) {
    d.nodes[p]->subscribe(5);
    subscribers.push_back(p);
  }
  d.simulator.run();
  PeerId interior = overlay::kNoPeer;
  for (const auto s : subscribers) {
    ASSERT_TRUE(d.nodes[s]->is_subscribed(5)) << "subscriber " << s;
    if (interior == overlay::kNoPeer && !d.nodes[s]->tree_children(5).empty()) {
      interior = s;
    }
  }
  ASSERT_NE(interior, overlay::kNoPeer);
  const auto children = d.nodes[interior]->tree_children(5);
  d.nodes[interior]->unsubscribe(5);
  d.simulator.run();
  // It stops being a member but stays on the tree as a pure relay.
  EXPECT_FALSE(d.nodes[interior]->is_subscribed(5));
  EXPECT_TRUE(d.nodes[interior]->on_tree(5));
  EXPECT_EQ(d.nodes[interior]->tree_children(5), children);
  for (const auto child : children) {
    EXPECT_EQ(d.nodes[child]->tree_parent(5), interior) << "child " << child;
  }
  std::map<PeerId, int> deliveries;
  for (PeerId p = 0; p < d.nodes.size(); ++p) {
    d.nodes[p]->on_data(
        [&deliveries, p](GroupId, std::uint64_t, PeerId) { ++deliveries[p]; });
  }
  d.nodes[0]->publish(5, 9);
  d.simulator.run();
  for (const auto s : subscribers) {
    EXPECT_EQ(deliveries[s], s == interior ? 0 : 1) << "subscriber " << s;
  }
}

// ------------------------------------------------------- group records

using Footprint = GroupCastNode::Footprint;

TEST(Node, MessagesForAnUnknownGroupLeaveNoRecord) {
  NodeOptions options;
  options.reliability.enabled = true;
  options.reliability.flow_control = true;
  NodeDeployment d(16, 61, 0.0, options);
  // Peer 1 becomes a bare endpoint that records what peer 0 answers.
  d.nodes[1]->stop();
  std::vector<Envelope> answers;
  d.transport.register_node(1,
                            [&](const Envelope& e) { answers.push_back(e); });
  constexpr GroupId kUnknown = 77;
  d.transport.send(1, 0, HeartbeatMsg{kUnknown});
  d.transport.send(1, 0, DataAckMsg{kUnknown, 1, 5});
  d.transport.send(1, 0, FlowControlMsg{kUnknown, true});
  d.simulator.run();
  // The heartbeat is answered as by a peer that disagrees it is the
  // parent; the ack and the throttle find no edge and stay silent.
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].from, 0u);
  const auto* lost = std::get_if<ParentLostMsg>(&answers[0].body);
  ASSERT_NE(lost, nullptr);
  EXPECT_EQ(lost->group, kUnknown);
  EXPECT_EQ(d.nodes[0]->footprint(kUnknown), Footprint::kNone);
}

TEST(Node, OnlyTreePeersHoldTreeRecords) {
  NodeDeployment d(48, 23);
  d.nodes[0]->create_group(1);
  d.simulator.run();
  // After the flood, every advert holder but the root is a compact record.
  std::size_t relays = 0;
  for (PeerId p = 1; p < d.nodes.size(); ++p) {
    const bool heard = d.nodes[p]->has_advertisement(1);
    relays += heard ? 1 : 0;
    EXPECT_EQ(d.nodes[p]->footprint(1),
              heard ? Footprint::kCompact : Footprint::kNone)
        << "peer " << p;
  }
  ASSERT_GT(relays, 0u);
  EXPECT_EQ(d.nodes[0]->footprint(1), Footprint::kTree);
  // A subscription gives tree records to the subscriber and the relays
  // its join climbs through, and to no one else.
  d.nodes[40]->subscribe(1);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[40]->is_subscribed(1));
  std::size_t trees = 0;
  for (PeerId p = 0; p < d.nodes.size(); ++p) {
    const bool tree = d.nodes[p]->footprint(1) == Footprint::kTree;
    trees += tree ? 1 : 0;
    EXPECT_EQ(tree, d.nodes[p]->on_tree(1)) << "peer " << p;
  }
  EXPECT_LT(trees, relays);
}

TEST(Node, SubscriberFoldedOffTheTreeKeepsItsRecord) {
  NodeDeployment d(64, 47);
  d.nodes[0]->create_group(5);
  d.simulator.run();
  PeerId leaf = 1;
  while (!d.nodes[leaf]->has_advertisement(5)) ++leaf;
  d.nodes[leaf]->subscribe(5);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[leaf]->is_subscribed(5));
  ASSERT_TRUE(d.nodes[leaf]->tree_children(5).empty());
  d.nodes[leaf]->unsubscribe(5);
  d.simulator.run();
  EXPECT_FALSE(d.nodes[leaf]->on_tree(5));
  // The fold keeps the advert (so a re-subscribe climbs the reverse path
  // again) and the tree record (edge epochs and payload dedup).
  EXPECT_TRUE(d.nodes[leaf]->has_advertisement(5));
  EXPECT_EQ(d.nodes[leaf]->footprint(5), Footprint::kTree);
  d.nodes[leaf]->subscribe(5);
  d.simulator.run();
  EXPECT_TRUE(d.nodes[leaf]->is_subscribed(5));
}

TEST(Node, DuplicatePayloadsSuppressed) {
  NodeDeployment d(48, 59);
  d.nodes[0]->create_group(8);
  d.simulator.run();
  d.nodes[20]->subscribe(8);
  d.simulator.run();
  int deliveries = 0;
  d.nodes[20]->on_data([&](GroupId, std::uint64_t, PeerId) { ++deliveries; });
  d.nodes[0]->publish(8, 42);
  d.simulator.run();
  d.nodes[0]->publish(8, 42);  // same id again: new send, deduped at nodes
  d.simulator.run();
  EXPECT_EQ(deliveries, 1);
}

TEST(Node, ViewerDedupGrowsWithStreamsNotChunks) {
  NodeDeployment d(48, 59);
  d.nodes[0]->create_group(8);
  d.simulator.run();
  GroupCastNode& viewer = *d.nodes[20];
  viewer.subscribe(8);
  d.simulator.run();
  ASSERT_TRUE(viewer.is_subscribed(8));
  std::size_t delivered = 0;
  viewer.on_chunk([&](GroupId, const ChunkMsg&) { ++delivered; });
  const auto stream_out = [&](std::uint32_t stream, std::uint32_t from,
                              std::uint32_t to) {
    for (std::uint32_t chunk = from; chunk < to; ++chunk) {
      d.nodes[0]->publish_chunk(8, stream, chunk,
                                d.simulator.now() + sim::SimTime::seconds(9),
                                1000);
      d.simulator.run();
    }
  };
  stream_out(0, 0, 30);
  const std::size_t after_30 = viewer.memory_bytes();
  stream_out(0, 30, 300);
  EXPECT_EQ(delivered, 300u);
  EXPECT_EQ(viewer.memory_bytes(), after_30);  // 270 more chunks, no bytes
  stream_out(1, 0, 300);
  stream_out(2, 0, 300);
  EXPECT_EQ(delivered, 900u);
  // Two more streams cost a window each (plus the window list's growth).
  EXPECT_LE(viewer.memory_bytes() - after_30, 2 * 48u);
}

TEST(Node, StopDropsInFlightDelivery) {
  NodeDeployment d(48, 61);
  d.nodes[0]->create_group(4);
  d.simulator.run();
  d.nodes[12]->subscribe(4);
  d.simulator.run();
  int deliveries = 0;
  d.nodes[12]->on_data([&](GroupId, std::uint64_t, PeerId) { ++deliveries; });
  d.nodes[0]->publish(4, 1);
  d.nodes[12]->crash();  // ungraceful departure before delivery
  d.simulator.run();
  EXPECT_EQ(deliveries, 0);
}

TEST(Node, GracefulStopDeliversFinalLeave) {
  NodeDeployment d(48, 61);
  d.nodes[0]->create_group(4);
  d.simulator.run();
  d.nodes[12]->subscribe(4);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[12]->is_subscribed(4));
  ASSERT_TRUE(d.nodes[12]->tree_children(4).empty());  // leaf: will Leave
  const auto parent = d.nodes[12]->tree_parent(4);
  // Leave then stop immediately: the in-flight Leave must still land so
  // the parent drops the child now instead of after heartbeat pruning.
  d.nodes[12]->unsubscribe(4);
  d.nodes[12]->stop();
  d.simulator.run();
  const auto siblings = d.nodes[parent]->tree_children(4);
  EXPECT_EQ(std::find(siblings.begin(), siblings.end(), PeerId{12}),
            siblings.end());
}

TEST(Node, ReattachRefreshesRetainedChildDepth) {
  NodeDeployment d(48, 29);
  d.nodes[0]->create_group(3);
  d.simulator.run();
  d.nodes[10]->subscribe(3);
  d.simulator.run();
  ASSERT_TRUE(d.nodes[10]->on_tree(3));
  const auto old_parent = d.nodes[10]->tree_parent(3);
  const auto old_depth = d.nodes[10]->tree_depth(3);
  // Hang a real child under 10 by injecting its Join directly.
  d.transport.send(30, 10, JoinMsg{3, 30});
  d.simulator.run();
  ASSERT_EQ(d.nodes[30]->tree_parent(3), PeerId{10});
  ASSERT_EQ(d.nodes[30]->tree_depth(3), old_depth + 1);
  // 10's parent dissolves; 10 re-attaches elsewhere and must push its new
  // depth to the retained child at once — heartbeats are disabled here, so
  // nothing else would ever refresh it.
  d.transport.send(old_parent, 10, ParentLostMsg{3});
  d.simulator.run();
  ASSERT_TRUE(d.nodes[10]->on_tree(3));
  // Seed chosen so the re-attach lands at a different depth; the final
  // check then pins the refresh rather than passing vacuously.
  ASSERT_NE(d.nodes[10]->tree_depth(3), old_depth);
  EXPECT_EQ(d.nodes[30]->tree_depth(3), d.nodes[10]->tree_depth(3) + 1);
}

TEST(Node, PublishRequiresMembership) {
  NodeDeployment d(48, 67);
  EXPECT_THROW(d.nodes[1]->publish(99, 1), PreconditionError);
  EXPECT_THROW(d.nodes[1]->unsubscribe(99), PreconditionError);
}

TEST(Node, LossyTransportStillConvergesWithRetries) {
  NodeDeployment d(48, 71, /*loss=*/0.05);
  d.nodes[0]->create_group(1);
  d.simulator.run();
  // With 5% loss some joins can fail; subscribe with one retry.
  std::vector<PeerId> subscribers{5, 10, 15, 20, 25};
  for (const auto s : subscribers) d.nodes[s]->subscribe(1);
  d.simulator.run();
  for (const auto s : subscribers) {
    if (!d.nodes[s]->is_subscribed(1)) d.nodes[s]->subscribe(1);
  }
  d.simulator.run();
  std::size_t subscribed = 0;
  for (const auto s : subscribers) {
    if (d.nodes[s]->is_subscribed(1)) ++subscribed;
  }
  EXPECT_GE(subscribed, 4u);
}

}  // namespace
}  // namespace groupcast::core
