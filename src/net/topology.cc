#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <queue>
#include <set>

#include "util/require.h"

namespace groupcast::net {

std::vector<RouterId> UnderlayTopology::stub_routers() const {
  std::vector<RouterId> out;
  for (RouterId id = 0; id < routers_.size(); ++id) {
    if (routers_[id].kind == RouterKind::kStub) out.push_back(id);
  }
  return out;
}

bool UnderlayTopology::is_connected() const {
  if (routers_.empty()) return true;
  std::vector<char> seen(routers_.size(), 0);
  std::queue<RouterId> frontier;
  frontier.push(0);
  seen[0] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const RouterId at = frontier.front();
    frontier.pop();
    for (const auto& [link, nbr] : adjacency_[at]) {
      if (!seen[nbr]) {
        seen[nbr] = 1;
        ++reached;
        frontier.push(nbr);
      }
    }
  }
  return reached == routers_.size();
}

RouterId UnderlayTopology::Builder::add_router(RouterKind kind,
                                               std::uint32_t domain) {
  routers_.push_back(Router{kind, domain});
  adjacency_.emplace_back();
  return static_cast<RouterId>(routers_.size() - 1);
}

bool UnderlayTopology::Builder::has_link(RouterId a, RouterId b) const {
  if (a >= routers_.size() || b >= routers_.size()) return false;
  const auto& adj = adjacency_[a];
  return std::any_of(adj.begin(), adj.end(),
                     [b](const auto& entry) { return entry.second == b; });
}

LinkId UnderlayTopology::Builder::add_link(RouterId a, RouterId b,
                                           double latency_ms) {
  GC_REQUIRE(a < routers_.size() && b < routers_.size());
  GC_REQUIRE_MSG(a != b, "self-loop links are not allowed");
  GC_REQUIRE_MSG(latency_ms > 0.0, "link latency must be positive");
  GC_REQUIRE_MSG(!has_link(a, b), "duplicate link");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, latency_ms});
  adjacency_[a].emplace_back(id, b);
  adjacency_[b].emplace_back(id, a);
  return id;
}

UnderlayTopology UnderlayTopology::Builder::build() && {
  UnderlayTopology topo;
  topo.routers_ = std::move(routers_);
  topo.links_ = std::move(links_);
  topo.adjacency_ = std::move(adjacency_);
  GC_REQUIRE_MSG(topo.is_connected(), "underlay topology must be connected");
  return topo;
}

namespace {

/// Extra random edges per domain graph beyond the connecting ring,
/// expressed as a fraction of node count (adds redundancy / path choice).
constexpr double kExtraEdgeFraction = 0.35;

/// Connects `members` into a random connected sub-graph: a randomized ring
/// (guaranteeing connectivity) plus `kExtraEdgeFraction * |members|`
/// random chords.  Latencies are drawn uniformly from `latency`.
void connect_domain(UnderlayTopology::Builder& builder,
                    std::vector<RouterId> members, LatencyRange latency,
                    util::Rng& rng) {
  if (members.size() < 2) return;
  rng.shuffle(members);
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    builder.add_link(members[i], members[i + 1],
                     rng.uniform(latency.min_ms, latency.max_ms));
  }
  if (members.size() > 2) {
    builder.add_link(members.back(), members.front(),
                     rng.uniform(latency.min_ms, latency.max_ms));
  }
  const auto extras = static_cast<std::size_t>(
      std::ceil(kExtraEdgeFraction * static_cast<double>(members.size())));
  for (std::size_t i = 0; i < extras; ++i) {
    const auto a = members[rng.uniform_index(members.size())];
    const auto b = members[rng.uniform_index(members.size())];
    if (a == b || builder.has_link(a, b)) continue;
    builder.add_link(a, b, rng.uniform(latency.min_ms, latency.max_ms));
  }
}

}  // namespace

UnderlayTopology generate_transit_stub(const TransitStubConfig& config,
                                       util::Rng& rng) {
  GC_REQUIRE(config.transit_domains >= 1);
  GC_REQUIRE(config.routers_per_transit_domain >= 1);
  GC_REQUIRE(config.routers_per_stub_domain >= 1);

  UnderlayTopology::Builder builder;

  // 1. Transit routers, grouped by transit domain.
  std::vector<std::vector<RouterId>> transit(config.transit_domains);
  for (std::uint32_t d = 0; d < config.transit_domains; ++d) {
    for (std::uint32_t r = 0; r < config.routers_per_transit_domain; ++r) {
      transit[d].push_back(builder.add_router(RouterKind::kTransit, d));
    }
    connect_domain(builder, transit[d], kIntraTransitLatency, rng);
  }

  // 2. Inter-domain transit links: ring over domains plus random chords,
  //    each implemented as a link between random border routers.
  if (config.transit_domains > 1) {
    for (std::uint32_t d = 0; d < config.transit_domains; ++d) {
      const std::uint32_t e = (d + 1) % config.transit_domains;
      if (d == e) continue;
      const RouterId a = transit[d][rng.uniform_index(transit[d].size())];
      const RouterId b = transit[e][rng.uniform_index(transit[e].size())];
      if (!builder.has_link(a, b)) {
        builder.add_link(a, b, rng.uniform(kTransitTransitLatency.min_ms,
                                           kTransitTransitLatency.max_ms));
      }
      if (config.transit_domains > 2 && rng.chance(0.5)) {
        const std::uint32_t f =
            static_cast<std::uint32_t>(rng.uniform_index(
                config.transit_domains));
        if (f != d) {
          const RouterId c = transit[f][rng.uniform_index(transit[f].size())];
          const RouterId g = transit[d][rng.uniform_index(transit[d].size())];
          if (c != g && !builder.has_link(c, g)) {
            builder.add_link(c, g,
                             rng.uniform(kTransitTransitLatency.min_ms,
                                         kTransitTransitLatency.max_ms));
          }
        }
      }
    }
  }

  // 3. Stub domains hanging off each transit router.
  std::uint32_t stub_domain_index = 0;
  for (std::uint32_t d = 0; d < config.transit_domains; ++d) {
    for (const RouterId attach : transit[d]) {
      for (std::uint32_t s = 0; s < config.stub_domains_per_transit_router;
           ++s) {
        std::vector<RouterId> stub;
        for (std::uint32_t r = 0; r < config.routers_per_stub_domain; ++r) {
          stub.push_back(
              builder.add_router(RouterKind::kStub, stub_domain_index));
        }
        connect_domain(builder, stub, kIntraStubLatency, rng);
        // Gateway link from a random stub router up to the transit router.
        const RouterId gateway = stub[rng.uniform_index(stub.size())];
        builder.add_link(gateway, attach,
                         rng.uniform(kTransitStubLatency.min_ms,
                                     kTransitStubLatency.max_ms));
        ++stub_domain_index;
      }
    }
  }

  return std::move(builder).build();
}

UnderlayTopology generate_waxman(const WaxmanConfig& config, util::Rng& rng) {
  GC_REQUIRE(config.routers >= 2);

  // Place routers on the plane.
  std::vector<std::pair<double, double>> position(config.routers);
  for (auto& [x, y] : position) {
    x = rng.uniform(0.0, kWaxmanPlaneSideMs);
    y = rng.uniform(0.0, kWaxmanPlaneSideMs);
  }
  const auto distance = [&position](std::uint32_t a, std::uint32_t b) {
    const double dx = position[a].first - position[b].first;
    const double dy = position[a].second - position[b].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  const double max_distance = kWaxmanPlaneSideMs * std::numbers::sqrt2;

  UnderlayTopology::Builder builder;
  for (std::uint32_t r = 0; r < config.routers; ++r) {
    builder.add_router(RouterKind::kStub, 0);
  }
  for (std::uint32_t a = 0; a < config.routers; ++a) {
    for (std::uint32_t b = a + 1; b < config.routers; ++b) {
      const double d = distance(a, b);
      const double p =
          kWaxmanAlpha * std::exp(-d / (kWaxmanBeta * max_distance));
      if (rng.chance(p)) {
        builder.add_link(a, b, std::max(d, 0.05));
      }
    }
  }

  // Stitch components: connect each unreached router to its nearest
  // already-reached one (latency = geometric distance, so repairs do not
  // distort the latency structure).
  std::vector<char> reached(config.routers, 0);
  std::vector<std::uint32_t> stack{0};
  reached[0] = 1;
  // Temporary adjacency from the builder via repeated BFS after repairs.
  const auto bfs = [&](auto&& self) -> void {
    while (!stack.empty()) {
      const auto at = stack.back();
      stack.pop_back();
      for (std::uint32_t other = 0; other < config.routers; ++other) {
        if (!reached[other] && builder.has_link(at, other)) {
          reached[other] = 1;
          stack.push_back(other);
        }
      }
    }
    (void)self;
  };
  bfs(bfs);
  for (std::uint32_t r = 0; r < config.routers; ++r) {
    if (reached[r]) continue;
    std::uint32_t nearest = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t other = 0; other < config.routers; ++other) {
      if (!reached[other]) continue;
      const double d = distance(r, other);
      if (d < best) {
        best = d;
        nearest = other;
      }
    }
    builder.add_link(r, nearest, std::max(best, 0.05));
    reached[r] = 1;
    stack.push_back(r);
    bfs(bfs);
  }

  return std::move(builder).build();
}

TransitStubConfig scale_config_for_peers(std::size_t peer_count,
                                         std::size_t peers_per_router) {
  GC_REQUIRE(peer_count > 0);
  GC_REQUIRE(peers_per_router > 0);
  TransitStubConfig config;
  const auto target_stub_routers = std::max<std::size_t>(
      48, (peer_count + peers_per_router - 1) / peers_per_router);
  // Keep transit structure fixed; widen the stub tier.  stub routers =
  // transit_domains * routers_per_transit * stubs_per_router * routers_per_stub
  const std::size_t transit_routers = static_cast<std::size_t>(
      config.transit_domains * config.routers_per_transit_domain);
  const double per_transit = static_cast<double>(target_stub_routers) /
                             static_cast<double>(transit_routers);
  // Split between stub-domain count and stub-domain size, favouring size.
  config.routers_per_stub_domain = static_cast<std::uint32_t>(
      std::clamp(std::ceil(std::sqrt(per_transit) * 2.0), 4.0, 48.0));
  config.stub_domains_per_transit_router = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(per_transit /
                              static_cast<double>(
                                  config.routers_per_stub_domain))));
  return config;
}

}  // namespace groupcast::net
