// Tests for the overlay substrate: Table 1 capacities, peer populations,
// the overlay graph, host cache, utility-aware bootstrap and the PLOD
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "metrics/graph_stats.h"
#include "overlay/bootstrap.h"
#include "overlay/graph.h"
#include "overlay/host_cache.h"
#include "overlay/peer.h"
#include "overlay/plod.h"
#include "test_helpers.h"
#include "util/require.h"

namespace groupcast::overlay {
namespace {

// ---------------------------------------------------------------- Table 1

TEST(CapacityDistribution, Table1ResourceLevels) {
  const CapacityDistribution table1;
  EXPECT_DOUBLE_EQ(table1.resource_level(1.0), 0.0);
  EXPECT_DOUBLE_EQ(table1.resource_level(10.0), 0.20);
  EXPECT_DOUBLE_EQ(table1.resource_level(100.0), 0.65);
  EXPECT_DOUBLE_EQ(table1.resource_level(1000.0), 0.95);
  EXPECT_NEAR(table1.resource_level(10000.0), 0.999, 1e-12);
}

TEST(CapacityDistribution, SamplingMatchesTable1) {
  const CapacityDistribution table1;
  util::Rng rng(1);
  std::map<double, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table1.sample(rng)];
  EXPECT_NEAR(counts[1.0] / static_cast<double>(n), 0.20, 0.01);
  EXPECT_NEAR(counts[10.0] / static_cast<double>(n), 0.45, 0.01);
  EXPECT_NEAR(counts[100.0] / static_cast<double>(n), 0.30, 0.01);
  EXPECT_NEAR(counts[1000.0] / static_cast<double>(n), 0.049, 0.005);
  EXPECT_NEAR(counts[10000.0] / static_cast<double>(n), 0.001, 0.001);
}

// ----------------------------------------------------------- population

TEST(PeerPopulation, LatencySymmetricNonNegativeZeroOnSelf) {
  testing::SmallWorld world(24, 5);
  const auto& population = *world.population;
  for (PeerId a = 0; a < 24; ++a) {
    EXPECT_DOUBLE_EQ(population.latency_ms(a, a), 0.0);
    for (PeerId b = 0; b < 24; ++b) {
      EXPECT_DOUBLE_EQ(population.latency_ms(a, b),
                       population.latency_ms(b, a));
      if (a != b) {
        EXPECT_GT(population.latency_ms(a, b), 0.0);
      }
    }
  }
}

TEST(PeerPopulation, PeersAttachToStubRouters) {
  testing::SmallWorld world(32, 7);
  for (const auto& peer : world.population->peers()) {
    EXPECT_EQ(world.underlay->router(peer.router).kind,
              net::RouterKind::kStub);
    EXPECT_GT(peer.access_latency_ms, 0.0);
    EXPECT_GT(peer.capacity, 0.0);
  }
}

// Access links draw U(0.2, 2.0) ms, so two peers on one stub router are
// at least two minimum access hops apart.
TEST(PeerPopulation, AccessLatencyDrawnFromFixedRange) {
  testing::SmallWorld world(96, 11);
  const auto& population = *world.population;
  for (const auto& peer : population.peers()) {
    EXPECT_GE(peer.access_latency_ms, 0.2);
    EXPECT_LE(peer.access_latency_ms, 2.0);
  }
  for (PeerId a = 0; a < 96; ++a) {
    for (PeerId b = a + 1; b < 96; ++b) {
      if (population.info(a).router != population.info(b).router) continue;
      EXPECT_GE(population.latency_ms(a, b), 0.4);
      EXPECT_LE(population.latency_ms(a, b), 4.0);
    }
  }
}

TEST(PeerPopulation, SampledResourceLevelTracksExact) {
  testing::SmallWorld world(128, 9);
  const auto& population = *world.population;
  util::Rng rng(10);
  for (PeerId p = 0; p < 128; p += 17) {
    const double sampled = population.sampled_resource_level(p, 64, rng);
    EXPECT_NEAR(sampled, population.resource_level(p), 0.25);
  }
}

// ---------------------------------------------------------------- graph

TEST(OverlayGraph, AddRemoveEdges) {
  OverlayGraph graph(4);
  EXPECT_TRUE(graph.add_edge(0, 1));
  EXPECT_FALSE(graph.add_edge(0, 1));  // duplicate
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_FALSE(graph.has_edge(1, 0));  // directed
  EXPECT_TRUE(graph.connected(1, 0));  // either direction
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(OverlayGraph, RejectsSelfEdgeAndRange) {
  OverlayGraph graph(3);
  EXPECT_THROW(graph.add_edge(1, 1), PreconditionError);
  EXPECT_THROW(graph.add_edge(0, 5), PreconditionError);
}

TEST(OverlayGraph, NeighborsMergesDirections) {
  OverlayGraph graph(5);
  graph.add_edge(0, 1);
  graph.add_edge(2, 0);
  graph.add_edge(0, 3);
  graph.add_edge(3, 0);  // both directions -> still one neighbour
  const auto nbrs = graph.neighbors(0);
  EXPECT_EQ(std::set<PeerId>(nbrs.begin(), nbrs.end()),
            (std::set<PeerId>{1, 2, 3}));
  EXPECT_EQ(graph.degree(0), 3u);
}

TEST(OverlayGraph, ConnectivityReport) {
  OverlayGraph graph(6);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(3, 4);  // second component; 5 isolated
  const auto report = graph.connectivity();
  EXPECT_FALSE(report.connected);
  EXPECT_EQ(report.isolated_peers, 1u);
  EXPECT_EQ(report.largest_component, 3u);
  graph.add_edge(2, 3);
  graph.add_edge(4, 5);
  EXPECT_TRUE(graph.connectivity().connected);
}

TEST(OverlayGraph, ClusteringCoefficientKnownGraphs) {
  // Triangle: coefficient 1.
  OverlayGraph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(triangle.clustering_coefficient(), 1.0);
  // Star: centre has no closed pairs -> coefficient 0.
  OverlayGraph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_DOUBLE_EQ(star.clustering_coefficient(), 0.0);
}

TEST(OverlayGraph, AverageHopDistanceOnLine) {
  OverlayGraph line(10);
  for (PeerId p = 0; p + 1 < 10; ++p) line.add_edge(p, p + 1);
  util::Rng rng(3);
  const double avg = line.average_hop_distance(rng, 500);
  // Expected mean |i-j| over uniform pairs of 10 nodes is 3.3.
  EXPECT_NEAR(avg, 3.3, 0.6);
}

// Out-adjacency (or, with `all`, Nbr) of every peer, in iteration order.
std::vector<std::vector<PeerId>> out_adjacency(const OverlayGraph& graph,
                                               bool all = false) {
  std::vector<std::vector<PeerId>> rows(graph.peer_count());
  for (PeerId p = 0; p < graph.peer_count(); ++p) {
    const auto span = all ? graph.neighbors(p) : graph.out_neighbors(p);
    rows[p].assign(span.begin(), span.end());
  }
  return rows;
}

// A random directed graph, built edge by edge so spans relocate in the
// arena many times.
OverlayGraph random_graph(std::size_t peers, std::size_t attempts,
                          std::uint64_t seed) {
  OverlayGraph graph(peers);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < attempts; ++i) {
    const auto from = static_cast<PeerId>(rng.uniform_index(peers));
    const auto to = static_cast<PeerId>(rng.uniform_index(peers));
    if (from != to) graph.add_edge(from, to);
  }
  return graph;
}

TEST(OverlayGraph, OutNeighborsKeepInsertionOrder) {
  OverlayGraph graph(6);
  graph.add_edge(0, 4);
  graph.add_edge(1, 0);  // interleaved appends relocate 0's span
  graph.add_edge(0, 2);
  graph.add_edge(2, 0);
  graph.add_edge(0, 5);
  graph.add_edge(0, 2);  // duplicate: order unchanged
  const auto out = graph.out_neighbors(0);
  EXPECT_EQ(std::vector<PeerId>(out.begin(), out.end()),
            (std::vector<PeerId>{4, 2, 5}));
  // Nbr(0): the out-links, then the in-only link from 1.
  const auto nbrs = graph.neighbors(0);
  EXPECT_EQ(std::vector<PeerId>(nbrs.begin(), nbrs.end()),
            (std::vector<PeerId>{4, 2, 5, 1}));
}

TEST(OverlayGraph, EdgeCountAndDegreeMatchAdjacency) {
  const OverlayGraph graph = random_graph(50, 400, 83);
  std::size_t out_total = 0;
  for (PeerId p = 0; p < 50; ++p) {
    out_total += graph.out_neighbors(p).size();
    EXPECT_EQ(graph.degree(p), graph.neighbors(p).size());
    for (const PeerId q : graph.out_neighbors(p)) {
      EXPECT_NE(q, p);
      EXPECT_TRUE(graph.has_edge(p, q));
      EXPECT_TRUE(graph.connected(q, p));
    }
  }
  EXPECT_EQ(graph.edge_count(), out_total);
}

TEST(OverlayGraph, CompactKeepsAdjacencyAndOrder) {
  OverlayGraph graph = random_graph(80, 1200, 89);
  const auto rows = out_adjacency(graph);
  const auto nbrs = out_adjacency(graph, /*all=*/true);
  const std::size_t edges = graph.edge_count();
  const std::size_t bytes = graph.memory_bytes();

  graph.compact();
  EXPECT_EQ(out_adjacency(graph), rows);
  EXPECT_EQ(out_adjacency(graph, /*all=*/true), nbrs);
  EXPECT_EQ(graph.edge_count(), edges);
  EXPECT_LE(graph.memory_bytes(), bytes);

  // Idempotent, and the compacted graph still takes new edges.
  const std::size_t compacted = graph.memory_bytes();
  graph.compact();
  EXPECT_EQ(graph.memory_bytes(), compacted);
  EXPECT_EQ(out_adjacency(graph), rows);
  PeerId from = 0;
  while (graph.has_edge(from, 1) || from == 1) ++from;
  EXPECT_TRUE(graph.add_edge(from, 1));
  EXPECT_EQ(graph.edge_count(), edges + 1);
  EXPECT_EQ(graph.out_neighbors(from).size(), rows[from].size() + 1);
}

// Reference model of the graph: plain out/in lists in insertion and
// arrival order.  Nbr(p) is p's out-links, then the in-links that are not
// also out-links.
struct AdjacencyModel {
  std::vector<std::vector<PeerId>> out, in;

  explicit AdjacencyModel(std::size_t peers) : out(peers), in(peers) {}

  bool has_edge(PeerId from, PeerId to) const {
    return std::find(out[from].begin(), out[from].end(), to) !=
           out[from].end();
  }
  bool add_edge(PeerId from, PeerId to) {
    if (has_edge(from, to)) return false;
    out[from].push_back(to);
    in[to].push_back(from);
    return true;
  }
  std::vector<PeerId> neighbors(PeerId p) const {
    std::vector<PeerId> result = out[p];
    for (const PeerId q : in[p]) {
      if (!has_edge(p, q)) result.push_back(q);
    }
    return result;
  }
};

// neighbors(p) equals `nbrs` (the model's Nbr(p)), out_neighbors(p) is its
// prefix holding the model's out-links, and degree(p) is its size.
::testing::AssertionResult MatchesModel(const OverlayGraph& graph,
                                        const AdjacencyModel& model,
                                        const std::vector<PeerId>& nbrs,
                                        PeerId p) {
  const auto span = graph.neighbors(p);
  if (!std::equal(span.begin(), span.end(), nbrs.begin(), nbrs.end())) {
    return ::testing::AssertionFailure() << "Nbr(" << p << ") differs";
  }
  const auto out = graph.out_neighbors(p);
  if (out.data() != span.data() ||
      !std::equal(out.begin(), out.end(), model.out[p].begin(),
                  model.out[p].end())) {
    return ::testing::AssertionFailure()
           << "out-links of " << p << " are not the prefix";
  }
  if (graph.degree(p) != nbrs.size()) {
    return ::testing::AssertionFailure() << "degree(" << p << ") differs";
  }
  return ::testing::AssertionSuccess();
}

// has_edge agrees with the model in both directions for every neighbour.
void ExpectEdgesMatch(const OverlayGraph& graph, const AdjacencyModel& model,
                      const std::vector<PeerId>& nbrs, PeerId p) {
  for (const PeerId q : nbrs) {
    EXPECT_EQ(graph.has_edge(p, q), model.has_edge(p, q)) << p << "->" << q;
    EXPECT_EQ(graph.has_edge(q, p), model.has_edge(q, p)) << q << "->" << p;
  }
}

TEST(OverlayGraph, NeighborOrderMatchesReferenceModel) {
  for (const std::size_t peers : {50, 150, 500}) {
    SCOPED_TRACE(::testing::Message() << peers << " peers");
    OverlayGraph graph(peers);
    AdjacencyModel model(peers);
    std::vector<std::vector<PeerId>> nbrs(peers);  // model Nbr, kept current
    std::vector<std::pair<PeerId, PeerId>> edges;
    util::Rng rng(peers);
    for (std::size_t step = 0; step < 12 * peers; ++step) {
      if (step % (4 * peers) == 3 * peers) {
        // Spans left at capacity == size relocate on their next add.
        const std::size_t bytes = graph.memory_bytes();
        graph.compact();
        EXPECT_LT(graph.memory_bytes(), bytes);
      }
      PeerId from = 0;
      PeerId to = 0;
      const auto kind = rng.uniform_index(4);
      if (kind < 2 && !edges.empty()) {
        // 0: the reverse of an existing edge; 1: a duplicate add.
        std::tie(from, to) = edges[rng.uniform_index(edges.size())];
        if (kind == 0) std::swap(from, to);
      } else {
        from = static_cast<PeerId>(rng.uniform_index(peers));
        to = static_cast<PeerId>(rng.uniform_index(peers - 1));
        if (to >= from) ++to;
      }
      const bool added = model.add_edge(from, to);
      ASSERT_EQ(graph.add_edge(from, to), added) << "step " << step;
      if (added) edges.emplace_back(from, to);
      nbrs[from] = model.neighbors(from);
      nbrs[to] = model.neighbors(to);
      for (PeerId p = 0; p < peers; ++p) {
        ASSERT_TRUE(MatchesModel(graph, model, nbrs[p], p)) << "step " << step;
      }
      ExpectEdgesMatch(graph, model, nbrs[from], from);
      ExpectEdgesMatch(graph, model, nbrs[to], to);
    }
    EXPECT_EQ(graph.edge_count(), edges.size());

    graph.compact();
    for (PeerId p = 0; p < peers; ++p) {
      ASSERT_TRUE(MatchesModel(graph, model, nbrs[p], p));
      ExpectEdgesMatch(graph, model, nbrs[p], p);
    }
  }
}

// ------------------------------------------------------------ host cache

TEST(HostCache, RegisterDeregisterContains) {
  testing::SmallWorld world(32, 11);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  cache.register_peer(3);
  cache.register_peer(3);  // idempotent
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HostCache, EvictsWhenFull) {
  testing::SmallWorld world(64, 13);
  HostCacheOptions options;
  options.capacity = 8;
  HostCacheServer cache(*world.population, options, world.rng);
  for (PeerId p = 0; p < 32; ++p) cache.register_peer(p);
  EXPECT_EQ(cache.size(), 8u);
}

TEST(HostCache, CandidatesExcludeJoinerAndAreDistinct) {
  testing::SmallWorld world(48, 17);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  for (PeerId p = 0; p < 48; ++p) cache.register_peer(p);
  for (int trial = 0; trial < 20; ++trial) {
    const auto batch = cache.bootstrap_candidates(5);
    EXPECT_GE(batch.size(), 5u);
    EXPECT_LE(batch.size(), 8u);
    std::set<PeerId> unique(batch.begin(), batch.end());
    EXPECT_EQ(unique.size(), batch.size());
    EXPECT_FALSE(unique.contains(5));
  }
}

TEST(HostCache, ClosestHalfAreActuallyClose) {
  testing::SmallWorld world(48, 19);
  const auto& population = *world.population;
  HostCacheServer cache(population, HostCacheOptions{}, world.rng);
  for (PeerId p = 0; p < 48; ++p) cache.register_peer(p);
  const PeerId joiner = 0;
  const auto batch = cache.bootstrap_candidates(joiner);
  ASSERT_GE(batch.size(), 5u);
  // The first entry is the globally closest cached peer by coordinates.
  double min_dist = 1e18;
  for (PeerId p = 1; p < 48; ++p) {
    min_dist = std::min(min_dist, population.coord_distance_ms(joiner, p));
  }
  EXPECT_NEAR(population.coord_distance_ms(joiner, batch.front()), min_dist,
              1e-9);
}

TEST(HostCache, ContainsExactlyTheCachedPeers) {
  testing::SmallWorld world(64, 97);
  HostCacheOptions options;
  options.capacity = 8;
  HostCacheServer cache(*world.population, options, world.rng);
  EXPECT_FALSE(cache.contains(0));
  for (PeerId p = 0; p < 32; ++p) {
    cache.register_peer(p);
    EXPECT_TRUE(cache.contains(p));  // the newest entry is never evicted
  }
  std::size_t cached = 0;
  for (PeerId p = 0; p < 64; ++p) cached += cache.contains(p) ? 1 : 0;
  EXPECT_EQ(cached, cache.size());
  for (PeerId p = 32; p < 64; ++p) EXPECT_FALSE(cache.contains(p));
  EXPECT_THROW(cache.contains(64), PreconditionError);
}

TEST(HostCache, CandidatesComeOnlyFromCachedPeers) {
  testing::SmallWorld world(64, 101);
  HostCacheOptions options;
  options.capacity = 12;
  HostCacheServer cache(*world.population, options, world.rng);
  for (PeerId p = 0; p < 40; ++p) cache.register_peer(p);
  for (PeerId joiner = 40; joiner < 64; ++joiner) {
    for (const PeerId candidate : cache.bootstrap_candidates(joiner)) {
      EXPECT_TRUE(cache.contains(candidate));
    }
  }
}

TEST(HostCache, EmptyCacheYieldsNoCandidates) {
  testing::SmallWorld world(16, 23);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  EXPECT_TRUE(cache.bootstrap_candidates(0).empty());
  cache.register_peer(4);
  EXPECT_TRUE(cache.bootstrap_candidates(4).empty());  // only the joiner
}

// The bootstrap query as first written: partial_sort over peer ids with a
// comparator that recomputes both coordinate distances on every call.
// Registration and the RNG stream are HostCacheServer's.
class ComparatorOnIdsCache {
 public:
  ComparatorOnIdsCache(const PeerPopulation& population,
                       HostCacheOptions options, util::Rng& rng)
      : population_(&population),
        options_(options),
        rng_(rng.split()),
        position_(population.size(), -1) {}

  void register_peer(PeerId peer) {
    if (position_[peer] >= 0) return;
    if (entries_.size() >= options_.capacity) {
      const auto victim_slot = rng_.uniform_index(entries_.size());
      position_[entries_[victim_slot]] = -1;
      entries_[victim_slot] = peer;
      position_[peer] = static_cast<std::int32_t>(victim_slot);
      return;
    }
    position_[peer] = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(peer);
  }

  std::vector<PeerId> bootstrap_candidates(PeerId joiner) {
    std::vector<PeerId> pool;
    for (const PeerId p : entries_) {
      if (p != joiner) pool.push_back(p);
    }
    if (pool.empty()) return {};
    const std::size_t batch = std::min<std::size_t>(
        pool.size(),
        options_.min_batch +
            rng_.uniform_index(options_.max_batch - options_.min_batch + 1));
    const auto closest_half =
        static_cast<std::ptrdiff_t>(std::min((batch + 1) / 2, pool.size()));
    std::partial_sort(pool.begin(), pool.begin() + closest_half, pool.end(),
                      [&](PeerId a, PeerId b) {
                        return population_->coord_distance_ms(joiner, a) <
                               population_->coord_distance_ms(joiner, b);
                      });
    std::vector<PeerId> result(pool.begin(), pool.begin() + closest_half);
    std::size_t attempts = 0;
    while (result.size() < batch && attempts < pool.size() * 4 + 16) {
      ++attempts;
      const PeerId pick = pool[rng_.uniform_index(pool.size())];
      if (std::find(result.begin(), result.end(), pick) == result.end()) {
        result.push_back(pick);
      }
    }
    return result;
  }

 private:
  const PeerPopulation* population_;
  HostCacheOptions options_;
  util::Rng rng_;
  std::vector<PeerId> entries_;
  std::vector<std::int32_t> position_;
};

// The cached-distance query returns exactly what the comparator-on-ids
// query returns, the random half included: both sorts see the same
// comparison outcomes, so the whole pool ends in the same permutation.
TEST(HostCache, CandidatesMatchComparatorOnIdsOracle) {
  testing::SmallWorld world(4000, 103);
  util::Rng seed_a(107);
  util::Rng seed_b(107);
  HostCacheServer cache(*world.population, HostCacheOptions{}, seed_a);
  ComparatorOnIdsCache oracle(*world.population, HostCacheOptions{}, seed_b);
  for (PeerId p = 0; p < 3000; ++p) {
    cache.register_peer(p);
    oracle.register_peer(p);
  }
  ASSERT_EQ(cache.size(), HostCacheOptions{}.capacity);
  util::Rng pick(109);
  for (std::size_t i = 0; i < 200; ++i) {
    // Joiners both inside and outside the cache; each then registers, as
    // a join does.
    const auto joiner = static_cast<PeerId>(pick.uniform_index(4000));
    ASSERT_EQ(cache.bootstrap_candidates(joiner),
              oracle.bootstrap_candidates(joiner))
        << "joiner #" << i << " (peer " << joiner << ")";
    cache.register_peer(joiner);
    oracle.register_peer(joiner);
  }
}

// ------------------------------------------------------------- bootstrap

struct BootstrapFixture {
  testing::SmallWorld world;
  OverlayGraph graph;
  HostCacheServer cache;
  GroupCastBootstrap bootstrap;

  explicit BootstrapFixture(std::size_t peers = 96, std::uint64_t seed = 29)
      : world(peers, seed),
        graph(peers),
        cache(*world.population, HostCacheOptions{}, world.rng),
        bootstrap(*world.population, graph, cache, BootstrapOptions{},
                  world.rng) {}
};

TEST(Bootstrap, TargetDegreeMonotonicInCapacity) {
  BootstrapFixture f;
  const auto& b = f.bootstrap;
  EXPECT_LE(b.target_degree(1.0), b.target_degree(10.0));
  EXPECT_LE(b.target_degree(10.0), b.target_degree(100.0));
  EXPECT_LE(b.target_degree(100.0), b.target_degree(10000.0));
  EXPECT_GE(b.target_degree(1.0), kDegreeMin);
  EXPECT_EQ(b.target_degree(1e12), kDegreeMax);
}

// ceil(1.6 * C^0.32) at each Table 1 capacity; all fall inside the
// [2, 48] clamp.
TEST(Bootstrap, TargetDegreeAtTable1Capacities) {
  BootstrapFixture f;
  const auto& b = f.bootstrap;
  EXPECT_EQ(b.target_degree(1.0), 2u);
  EXPECT_EQ(b.target_degree(10.0), 4u);
  EXPECT_EQ(b.target_degree(100.0), 7u);
  EXPECT_EQ(b.target_degree(1000.0), 15u);
  EXPECT_EQ(b.target_degree(10000.0), 31u);
}

TEST(Bootstrap, JoinRegistersAndConnects) {
  BootstrapFixture f;
  f.bootstrap.join(0);
  EXPECT_TRUE(f.bootstrap.is_joined(0));
  EXPECT_TRUE(f.cache.contains(0));
  // First joiner has no one to connect to.
  EXPECT_EQ(f.graph.degree(0), 0u);
  f.bootstrap.join(1);
  EXPECT_GT(f.graph.degree(1), 0u);  // found peer 0 via the cache
  EXPECT_THROW(f.bootstrap.join(1), PreconditionError);  // double join
}

TEST(Bootstrap, FullJoinProducesLargelyConnectedOverlay) {
  BootstrapFixture f(128, 31);
  for (PeerId p = 0; p < 128; ++p) f.bootstrap.join(p);
  const auto report = f.graph.connectivity();
  EXPECT_GE(report.largest_component, 120u);
}

TEST(Bootstrap, OutDegreeBoundedByTarget) {
  BootstrapFixture f(128, 37);
  for (PeerId p = 0; p < 128; ++p) {
    f.bootstrap.join(p);
    const auto target =
        f.bootstrap.target_degree(f.world.population->info(p).capacity);
    EXPECT_LE(f.graph.out_neighbors(p).size(), target);
  }
}

TEST(Bootstrap, BackLinkProbabilityInUnitInterval) {
  BootstrapFixture f(96, 41);
  for (PeerId p = 0; p < 96; ++p) f.bootstrap.join(p);
  for (PeerId k = 0; k < 96; k += 7) {
    const auto nbrs = f.graph.neighbors(k);
    for (PeerId i = 0; i < 96; i += 11) {
      if (i == k) continue;
      const double pb = f.bootstrap.back_link_probability(k, i, nbrs);
      EXPECT_GE(pb, 0.0);
      EXPECT_LE(pb, 1.0);
    }
  }
}

TEST(Bootstrap, EmptyNeighbourhoodAcceptsBackLink) {
  BootstrapFixture f;
  EXPECT_DOUBLE_EQ(f.bootstrap.back_link_probability(0, 1, {}), 1.0);
}

TEST(Bootstrap, FirstJoinerProbesNobody) {
  BootstrapFixture f;
  const JoinStats stats = f.bootstrap.join(7);
  EXPECT_EQ(stats.probe_messages, 0u);
  EXPECT_EQ(stats.candidates_seen, 0u);
  EXPECT_EQ(stats.back_link_requests, 0u);
  EXPECT_EQ(stats.out_links_created, 0u);
  EXPECT_EQ(f.graph.edge_count(), 0u);
}

TEST(Bootstrap, RejectsOutOfRangePeer) {
  BootstrapFixture f(32, 103);
  EXPECT_THROW(f.bootstrap.join(32), PreconditionError);
  EXPECT_EQ(f.graph.edge_count(), 0u);
  EXPECT_EQ(f.cache.size(), 0u);
}

TEST(Bootstrap, SameSeedBuildsIdenticalOverlay) {
  BootstrapFixture a(150, 107);
  BootstrapFixture b(150, 107);
  for (PeerId p = 0; p < 150; ++p) {
    a.bootstrap.join(p);
    b.bootstrap.join(p);
  }
  EXPECT_EQ(out_adjacency(a.graph), out_adjacency(b.graph));
}

// The fork constructor (deployment snapshots) copies the protocol state
// and rebinds it to the fork's own graph and host cache: the fork's joins
// replay the donor's exactly and never touch the donor's structures.
TEST(Bootstrap, ForkContinuesTheDonorsJoins) {
  BootstrapFixture f(120, 109);
  for (PeerId p = 0; p < 60; ++p) f.bootstrap.join(p);
  OverlayGraph fork_graph = f.graph;
  HostCacheServer fork_cache = f.cache;
  GroupCastBootstrap fork(f.bootstrap, fork_graph, fork_cache);
  for (PeerId p = 0; p < 120; ++p) {
    EXPECT_EQ(fork.is_joined(p), f.bootstrap.is_joined(p));
  }
  EXPECT_THROW(fork.join(5), PreconditionError);  // joined before the fork

  const auto donor_rows = out_adjacency(f.graph);
  for (PeerId p = 60; p < 120; ++p) fork.join(p);
  EXPECT_EQ(out_adjacency(f.graph), donor_rows);
  EXPECT_FALSE(f.bootstrap.is_joined(60));
  EXPECT_FALSE(f.cache.contains(60));

  for (PeerId p = 60; p < 120; ++p) f.bootstrap.join(p);
  EXPECT_EQ(out_adjacency(fork_graph), out_adjacency(f.graph));
}

// The overlay is built by joins only, so it must hold these invariants
// after every join, for every utility blend: a peer that has not joined
// has no edge (candidates come only from joined peers), a join adds
// exactly the links its stats report, and every link joins two members.
struct JoinWorld {
  std::size_t peers;
  std::uint64_t seed;
  double pinned_resource_level;
};

void PrintTo(const JoinWorld& world, std::ostream* os) {
  *os << world.peers << " peers, seed " << world.seed << ", pinned r "
      << world.pinned_resource_level;
}

class JoinProperty : public ::testing::TestWithParam<JoinWorld> {};

TEST_P(JoinProperty, EdgesOnlyBetweenJoinedPeersAndStatsMatchEdges) {
  const JoinWorld param = GetParam();
  testing::SmallWorld world(param.peers, param.seed);
  OverlayGraph graph(param.peers);
  HostCacheServer cache(*world.population, HostCacheOptions{}, world.rng);
  BootstrapOptions options;
  options.pinned_resource_level = param.pinned_resource_level;
  GroupCastBootstrap bootstrap(*world.population, graph, cache, options,
                               world.rng);
  std::vector<PeerId> order(param.peers);
  for (PeerId p = 0; p < param.peers; ++p) order[p] = p;
  world.rng.shuffle(order);

  for (std::size_t joined = 0; joined < order.size(); ++joined) {
    const PeerId peer = order[joined];
    SCOPED_TRACE(::testing::Message() << "join #" << joined << ", peer "
                                      << peer);
    ASSERT_EQ(graph.degree(peer), 0u);
    const std::size_t edges_before = graph.edge_count();
    const JoinStats stats = bootstrap.join(peer);

    EXPECT_TRUE(bootstrap.is_joined(peer));
    EXPECT_TRUE(cache.contains(peer));
    EXPECT_EQ(graph.edge_count(),
              edges_before + stats.out_links_created +
                  stats.back_links_accepted);
    EXPECT_EQ(graph.out_neighbors(peer).size(), stats.out_links_created);
    EXPECT_LE(stats.back_links_accepted, stats.back_link_requests);
    EXPECT_LE(stats.out_links_created, stats.back_link_requests);
    EXPECT_LE(stats.back_link_requests,
              bootstrap.target_degree(world.population->info(peer).capacity));
    EXPECT_LE(stats.back_link_requests, stats.candidates_seen);
    EXPECT_EQ(stats.probe_messages % 2, 0u);
    EXPECT_LE(stats.probe_messages, 2 * HostCacheOptions{}.max_batch);
    if (joined > 0) {
      EXPECT_GT(stats.probe_messages, 0u);
    }
    for (const PeerId nbr : graph.neighbors(peer)) {
      EXPECT_TRUE(bootstrap.is_joined(nbr));
    }
  }
  for (PeerId p = 0; p < param.peers; ++p) {
    for (const PeerId q : graph.out_neighbors(p)) EXPECT_NE(q, p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, JoinProperty,
    ::testing::Values(JoinWorld{96, 29, -1.0}, JoinWorld{128, 31, -1.0},
                      JoinWorld{300, 47, -1.0}, JoinWorld{600, 61, -1.0},
                      JoinWorld{128, 53, 0.0}, JoinWorld{128, 59, 1.0}));

// ------------------------------------------------------------------ PLOD

TEST(Plod, ProducesConnectedPowerLawGraph) {
  OverlayGraph graph(600);
  util::Rng rng(61);
  const auto result = generate_plod(graph, rng);
  EXPECT_GT(result.placed_edges, 0u);
  EXPECT_TRUE(graph.connectivity().connected);
  const auto dist = metrics::degree_distribution(graph);
  EXPECT_LT(dist.log_log_slope(), -0.8);  // clearly decaying tail
}

TEST(Plod, EdgesAreSymmetricPairs) {
  OverlayGraph graph(200);
  util::Rng rng(67);
  generate_plod(graph, rng);
  for (PeerId p = 0; p < 200; ++p) {
    for (const auto q : graph.out_neighbors(p)) {
      EXPECT_TRUE(graph.has_edge(q, p));
    }
  }
}

TEST(Plod, RequiresEmptyGraph) {
  OverlayGraph graph(10);
  graph.add_edge(0, 1);
  util::Rng rng(71);
  EXPECT_THROW(generate_plod(graph, rng), PreconditionError);
}

TEST(Plod, RespectsDegreeCap) {
  // The credit cap grows with the network: max(64, n / 10).
  const std::size_t n = 1000;
  OverlayGraph graph(n);
  util::Rng rng(73);
  generate_plod(graph, rng);
  const std::size_t cap = std::max<std::size_t>(64, n / 10);
  for (PeerId p = 0; p < n; ++p) {
    // repair edges can add at most a couple beyond the credit cap
    EXPECT_LE(graph.degree(p), cap + 2);
  }
}

}  // namespace
}  // namespace groupcast::overlay
