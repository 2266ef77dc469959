// Runtime bench: the deployable per-node middleware (Transport +
// GroupCastNode) measured in real protocol messages *and wire bytes*.
//
// Unlike the engine-level benches (which count logical messages), this one
// stands up one GroupCastNode per peer and drives the full message-passing
// protocol: group creation, subscriptions, a speaking round, and leaves.
// Byte counts use the canonical wire encoding (core/wire.h).
#include <cstdio>
#include <memory>

#include "core/node.h"
#include "overlay/bootstrap.h"
#include "overlay/host_cache.h"
#include "util/rng.h"

#include "trace/cli.h"

namespace {

using namespace groupcast;

struct Phase {
  const char* name;
  std::size_t messages;
  std::size_t bytes;
};

}  // namespace

int main(int argc, char** argv) {
  const groupcast::trace::CliTracing tracing(argc, argv);
  const std::size_t peers = 800;
  const std::size_t subscriber_count = 80;

  // Deployment: underlay + population + overlay + one node per peer.
  util::Rng rng(2026);
  const auto ts = net::scale_config_for_peers(peers);
  const auto underlay = net::generate_transit_stub(ts, rng);
  const net::IpRouting routing(underlay);
  overlay::PopulationConfig pop_config;
  pop_config.peer_count = peers;
  const overlay::PeerPopulation population(routing, pop_config, rng);
  overlay::OverlayGraph graph(peers);
  overlay::HostCacheServer cache(population, overlay::HostCacheOptions{},
                                 rng);
  overlay::GroupCastBootstrap bootstrap(population, graph, cache,
                                        overlay::BootstrapOptions{}, rng);
  for (overlay::PeerId p = 0; p < peers; ++p) bootstrap.join(p);
  overlay::emit_joins(bootstrap.joins());

  sim::Simulator simulator;
  core::Transport transport(simulator, population, core::TransportOptions{},
                            rng);
  std::vector<std::unique_ptr<core::GroupCastNode>> nodes;
  for (overlay::PeerId p = 0; p < peers; ++p) {
    nodes.push_back(std::make_unique<core::GroupCastNode>(
        p, transport, graph, core::NodeOptions{}, rng));
    nodes.back()->start();
  }

  std::vector<Phase> phases;
  auto checkpoint = [&](const char* name, std::size_t& last_m,
                        std::size_t& last_b) {
    phases.push_back(Phase{name, transport.messages_sent() - last_m,
                           transport.bytes_sent() - last_b});
    last_m = transport.messages_sent();
    last_b = transport.bytes_sent();
  };
  std::size_t last_m = 0, last_b = 0;

  // Phase 1: group creation + advertisement.
  const overlay::PeerId rendezvous = 0;
  nodes[rendezvous]->create_group(1);
  simulator.run();
  checkpoint("advertisement", last_m, last_b);

  // Phase 2: subscriptions.
  std::vector<overlay::PeerId> subscribers;
  for (const auto idx : rng.sample_indices(peers, subscriber_count)) {
    const auto p = static_cast<overlay::PeerId>(idx);
    if (p == rendezvous) continue;
    subscribers.push_back(p);
    nodes[p]->subscribe(1);
  }
  simulator.run();
  std::size_t joined = 0;
  for (const auto s : subscribers) {
    if (nodes[s]->is_subscribed(1)) ++joined;
  }
  checkpoint("subscription", last_m, last_b);

  // Phase 3: a speaking round — every subscriber publishes one payload.
  std::size_t deliveries = 0;
  for (const auto s : subscribers) {
    nodes[s]->on_data(
        [&deliveries](core::GroupId, std::uint64_t, overlay::PeerId) {
          ++deliveries;
        });
  }
  std::uint64_t payload = 0;
  for (const auto s : subscribers) {
    if (nodes[s]->is_subscribed(1)) nodes[s]->publish(1, ++payload);
  }
  simulator.run();
  checkpoint("speaking round", last_m, last_b);

  // Phase 4: everyone leaves.
  for (const auto s : subscribers) {
    if (nodes[s]->is_subscribed(1)) nodes[s]->unsubscribe(1);
  }
  simulator.run();
  checkpoint("teardown", last_m, last_b);

  std::printf("Node-runtime cost of one group lifecycle "
              "(%zu peers, %zu subscribers, wire-encoded)\n\n",
              peers, subscribers.size());
  std::printf("%-16s %12s %12s %14s\n", "phase", "messages", "bytes",
              "bytes/peer");
  for (const auto& phase : phases) {
    std::printf("%-16s %12zu %12zu %14.1f\n", phase.name, phase.messages,
                phase.bytes,
                static_cast<double>(phase.bytes) / static_cast<double>(peers));
  }
  std::printf("\nsubscriptions joined: %zu/%zu; payload deliveries: %zu "
              "(expect ~%zu·%zu)\n",
              joined, subscribers.size(), deliveries, joined, joined - 1);
  return 0;
}
