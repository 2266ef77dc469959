#include "net/routing.h"

#include <algorithm>

#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::net {

namespace {
/// Core sources per parallel_for chunk; each chunk allocates its own
/// Dijkstra heap once and reuses it for every source it runs.
constexpr std::size_t kSourcesPerChunk = 16;
/// Leaves per parallel_for chunk (each leaf runs all of its sources).
constexpr std::size_t kLeavesPerChunk = 8;

/// Collapses each pair of a size×size block onto the smaller of its two
/// directions.  Shortest-path *costs* are symmetric on an undirected
/// underlay, but the two directions can tie-break onto different
/// equal-cost paths and sum the same latencies in a different order,
/// ending a few ulps apart.
void symmetrize(double* dist, std::size_t size) {
  for (std::size_t a = 0; a < size; ++a) {
    for (std::size_t b = a + 1; b < size; ++b) {
      const double d = std::min(dist[a * size + b], dist[b * size + a]);
      dist[a * size + b] = d;
      dist[b * size + a] = d;
    }
  }
}
}  // namespace

IpRouting::IpRouting(const UnderlayTopology& topology)
    : topology_(&topology), n_(topology.router_count()), place_(n_) {
  GC_REQUIRE(n_ > 0);

  // 1. Candidate leaves: the routers of one stub domain, in id order.
  //    RouterKind only proposes them; the link count below decides.
  std::vector<std::pair<std::uint32_t, RouterId>> stubs;
  for (RouterId r = 0; r < n_; ++r) {
    const Router& router = topology.router(r);
    if (router.kind == RouterKind::kStub) stubs.emplace_back(router.domain, r);
  }
  std::sort(stubs.begin(), stubs.end());
  std::vector<std::vector<RouterId>> groups;
  std::vector<std::uint32_t> group_of(n_, kNoLeaf);
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    if (i == 0 || stubs[i].first != stubs[i - 1].first) groups.emplace_back();
    groups.back().push_back(stubs[i].second);
    group_of[stubs[i].second] = static_cast<std::uint32_t>(groups.size() - 1);
  }

  // 2. A candidate is a leaf when exactly one link leaves it, and that
  //    link lands outside every other such candidate (two one-link
  //    candidates joined to each other are the whole underlay: core).
  struct Exit {
    std::size_t links = 0;
    LinkId link = 0;
    RouterId from = 0;
    RouterId to = 0;
  };
  std::vector<Exit> exits(groups.size());
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (const RouterId r : groups[g]) {
      for (const auto& [link, nbr] : topology.neighbors(r)) {
        if (group_of[nbr] == g) continue;
        exits[g] = {exits[g].links + 1, link, r, nbr};
      }
    }
  }
  const auto one_exit = [&](std::uint32_t g) {
    return g != kNoLeaf && exits[g].links == 1;
  };
  std::vector<std::uint32_t> kept;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    if (one_exit(g) && !one_exit(group_of[exits[g].to])) kept.push_back(g);
  }

  // 3. Number the leaves' routers within their leaf, and every other
  //    router within the core, both in id order.
  std::vector<std::vector<RouterId>> members;
  std::size_t leaf_cells = 0;
  for (const std::uint32_t g : kept) {
    const auto l = static_cast<std::uint32_t>(leaves_.size());
    Leaf leaf;
    leaf.offset = leaf_cells;
    leaf.size = static_cast<std::uint32_t>(groups[g].size());
    leaf.uplink = exits[g].link;
    for (std::uint32_t s = 0; s < leaf.size; ++s) {
      place_[groups[g][s]].leaf = l;
      place_[groups[g][s]].slot = s;
      if (groups[g][s] == exits[g].from) leaf.gateway = s;
    }
    leaf_cells += static_cast<std::size_t>(leaf.size) * leaf.size;
    leaves_.push_back(leaf);
    members.push_back(std::move(groups[g]));
  }
  std::vector<RouterId> core;
  for (RouterId r = 0; r < n_; ++r) {
    if (place_[r].leaf != kNoLeaf) continue;
    place_[r].slot = place_[r].attach = static_cast<std::uint32_t>(core.size());
    core.push_back(r);
  }
  core_n_ = core.size();
  for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
    const std::uint32_t attach = place_[exits[kept[l]].to].slot;
    for (const RouterId r : members[l]) place_[r].attach = attach;
  }

  // 4. All-pairs tables: the core's sources in parallel, then the leaves
  //    in parallel.  Every source writes only its own row, so the tables
  //    are the same on any schedule.
  core_dist_.assign(core_n_ * core_n_, 0.0);
  core_next_.assign(core_n_ * core_n_, 0);
  util::parallel_for_chunks(
      core_n_, kSourcesPerChunk, [&](std::size_t begin, std::size_t end) {
        Heap heap;
        for (std::size_t src = begin; src < end; ++src) {
          shortest_row(kNoLeaf, core, static_cast<std::uint32_t>(src),
                       &core_dist_[src * core_n_], &core_next_[src * core_n_],
                       heap);
        }
      });
  symmetrize(core_dist_.data(), core_n_);

  leaf_dist_.assign(leaf_cells, 0.0);
  leaf_next_.assign(leaf_cells, 0);
  util::parallel_for_chunks(
      leaves_.size(), kLeavesPerChunk, [&](std::size_t begin, std::size_t end) {
        Heap heap;
        for (std::size_t l = begin; l < end; ++l) {
          const Leaf& leaf = leaves_[l];
          for (std::uint32_t src = 0; src < leaf.size; ++src) {
            const std::size_t row = leaf.offset + std::size_t{src} * leaf.size;
            shortest_row(static_cast<std::uint32_t>(l), members[l], src,
                         &leaf_dist_[row], &leaf_next_[row], heap);
          }
          symmetrize(&leaf_dist_[leaf.offset], leaf.size);
        }
      });

  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    const Leaf& leaf = leaves_[l];
    const double uplink_ms = topology.link(leaf.uplink).latency_ms;
    for (std::uint32_t s = 0; s < leaf.size; ++s) {
      place_[members[l][s]].up_ms =
          leaf_dist_[leaf.offset + std::size_t{s} * leaf.size + leaf.gateway] +
          uplink_ms;
    }
  }
}

void IpRouting::shortest_row(std::uint32_t group,
                             const std::vector<RouterId>& members,
                             std::uint32_t src, double* dist, LinkId* next,
                             Heap& heap) const {
  // Dijkstra over the links between two routers of `group`, carrying each
  // destination's first link along with its tentative distance.
  const std::size_t size = members.size();
  std::fill(dist, dist + size, std::numeric_limits<double>::infinity());
  dist[src] = 0.0;
  const std::greater<> later;
  heap.clear();
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, at] = heap.back();
    heap.pop_back();
    if (d > dist[at]) continue;
    for (const auto& [link, nbr] : topology_->neighbors(members[at])) {
      const Place& p = place_[nbr];
      if (p.leaf != group) continue;
      const double cand = d + topology_->link(link).latency_ms;
      if (cand < dist[p.slot]) {
        dist[p.slot] = cand;
        next[p.slot] = (at == src) ? link : next[at];
        heap.emplace_back(cand, p.slot);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  for (std::size_t dst = 0; dst < size; ++dst) {
    GC_ENSURE_MSG(dist[dst] < std::numeric_limits<double>::infinity(),
                  "underlay must be connected");
  }
}

double IpRouting::distance_ms(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  const Place& a = place_[from];
  const Place& b = place_[to];
  if (a.leaf != kNoLeaf && a.leaf == b.leaf) {
    const Leaf& leaf = leaves_[a.leaf];
    return leaf_dist_[leaf.offset + std::size_t{a.slot} * leaf.size + b.slot];
  }
  // The first sum is commutative, so both directions round alike.  Core
  // routers carry up_ms == 0, which leaves a core entry untouched.
  return (a.up_ms + b.up_ms) +
         core_dist_[std::size_t{a.attach} * core_n_ + b.attach];
}

LinkId IpRouting::next_link(RouterId at, RouterId to) const {
  const Place& a = place_[at];
  const Place& b = place_[to];
  if (a.leaf != kNoLeaf) {
    // Inside a leaf: towards `to` if it is in this leaf, else towards the
    // gateway and out over the uplink.
    const Leaf& leaf = leaves_[a.leaf];
    const std::uint32_t target = (b.leaf == a.leaf) ? b.slot : leaf.gateway;
    if (target == a.slot) return leaf.uplink;
    return leaf_next_[leaf.offset + std::size_t{a.slot} * leaf.size + target];
  }
  // In the core: down the uplink once at `to`'s core router.
  if (b.leaf != kNoLeaf && b.attach == a.slot) return leaves_[b.leaf].uplink;
  return core_next_[std::size_t{a.slot} * core_n_ + b.attach];
}

RouterId IpRouting::next_hop(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  GC_REQUIRE(from != to);
  const Link& link = topology_->link(next_link(from, to));
  return link.a == from ? link.b : link.a;
}

std::vector<RouterId> IpRouting::path(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  std::vector<RouterId> out{from};
  for_each_path_link(from, to, [this, &out](LinkId id) {
    const Link& link = topology_->link(id);
    out.push_back(link.a == out.back() ? link.b : link.a);
  });
  return out;
}

void IpRouting::for_each_path_link(
    RouterId from, RouterId to, const std::function<void(LinkId)>& fn) const {
  GC_REQUIRE(from < n_ && to < n_);
  RouterId at = from;
  std::size_t hops = 0;
  while (at != to) {
    const LinkId id = next_link(at, to);
    fn(id);
    const Link& link = topology_->link(id);
    at = link.a == at ? link.b : link.a;
    GC_ENSURE_MSG(++hops <= n_, "routing loop detected");
  }
}

std::size_t IpRouting::hop_count(RouterId from, RouterId to) const {
  std::size_t hops = 0;
  for_each_path_link(from, to, [&hops](LinkId) { ++hops; });
  return hops;
}

std::size_t IpRouting::memory_bytes() const {
  return sizeof(*this) + place_.capacity() * sizeof(Place) +
         leaves_.capacity() * sizeof(Leaf) +
         leaf_dist_.capacity() * sizeof(double) +
         leaf_next_.capacity() * sizeof(LinkId) +
         core_dist_.capacity() * sizeof(double) +
         core_next_.capacity() * sizeof(LinkId);
}

}  // namespace groupcast::net
