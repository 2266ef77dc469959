#include "net/routing.h"

#include <algorithm>
#include <queue>

#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::net {

namespace {
/// Sources per parallel_for chunk; each chunk allocates its own Dijkstra
/// scratch once and reuses it for every source it runs.
constexpr std::size_t kSourcesPerChunk = 16;
}  // namespace

IpRouting::IpRouting(const UnderlayTopology& topology)
    : topology_(&topology), n_(topology.router_count()) {
  GC_REQUIRE(n_ > 0);
  dist_.assign(n_ * n_, std::numeric_limits<double>::infinity());
  next_.assign(n_ * n_, 0);

  link_of_.resize(n_);
  for (RouterId r = 0; r < n_; ++r) {
    for (const auto& [link, nbr] : topology.neighbors(r)) {
      link_of_[r].emplace(nbr, link);
    }
  }

  // Dijkstra from every source, recording each destination's first hop by
  // carrying it along with the tentative distance.  Sources are
  // independent: each writes only its own row of dist_ / next_, from
  // scratch owned by its chunk, so the rows are the same on any schedule.
  using QueueItem = std::pair<double, RouterId>;
  util::parallel_for_chunks(
      n_, kSourcesPerChunk, [&](std::size_t begin, std::size_t end) {
        std::vector<double> dist(n_);
        std::vector<RouterId> first_hop(n_);
        std::priority_queue<QueueItem, std::vector<QueueItem>,
                            std::greater<>>
            heap;
        for (auto src = static_cast<RouterId>(begin); src < end; ++src) {
          std::fill(dist.begin(), dist.end(),
                    std::numeric_limits<double>::infinity());
          dist[src] = 0.0;
          first_hop[src] = src;
          heap.emplace(0.0, src);
          while (!heap.empty()) {
            const auto [d, at] = heap.top();
            heap.pop();
            if (d > dist[at]) continue;
            for (const auto& [link, nbr] : topology.neighbors(at)) {
              const double cand = d + topology.link(link).latency_ms;
              if (cand < dist[nbr]) {
                dist[nbr] = cand;
                first_hop[nbr] = (at == src) ? nbr : first_hop[at];
                heap.emplace(cand, nbr);
              }
            }
          }
          for (RouterId dst = 0; dst < n_; ++dst) {
            GC_ENSURE_MSG(
                dist[dst] < std::numeric_limits<double>::infinity(),
                "underlay must be connected");
            dist_[index(src, dst)] = dist[dst];
            next_[index(src, dst)] = first_hop[dst];
          }
        }
      });

  // Shortest-path *costs* are symmetric on an undirected underlay, but the
  // two directions can tie-break onto different equal-cost paths and sum
  // the same latencies in a different order, ending a few ulps apart.
  // Collapse each pair onto the smaller rounding so distance_ms(a, b) ==
  // distance_ms(b, a) exactly.
  for (RouterId a = 0; a < n_; ++a) {
    for (RouterId b = a + 1; b < n_; ++b) {
      const double d = std::min(dist_[index(a, b)], dist_[index(b, a)]);
      dist_[index(a, b)] = d;
      dist_[index(b, a)] = d;
    }
  }
}

double IpRouting::distance_ms(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  return dist_[index(from, to)];
}

RouterId IpRouting::next_hop(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  GC_REQUIRE(from != to);
  return next_[index(from, to)];
}

std::vector<RouterId> IpRouting::path(RouterId from, RouterId to) const {
  GC_REQUIRE(from < n_ && to < n_);
  std::vector<RouterId> out{from};
  RouterId at = from;
  while (at != to) {
    at = next_[index(at, to)];
    out.push_back(at);
    GC_ENSURE_MSG(out.size() <= n_, "routing loop detected");
  }
  return out;
}

void IpRouting::for_each_path_link(
    RouterId from, RouterId to, const std::function<void(LinkId)>& fn) const {
  GC_REQUIRE(from < n_ && to < n_);
  RouterId at = from;
  std::size_t hops = 0;
  while (at != to) {
    const RouterId hop = next_[index(at, to)];
    const auto it = link_of_[at].find(hop);
    GC_ENSURE(it != link_of_[at].end());
    fn(it->second);
    at = hop;
    GC_ENSURE_MSG(++hops <= n_, "routing loop detected");
  }
}

std::size_t IpRouting::hop_count(RouterId from, RouterId to) const {
  std::size_t hops = 0;
  for_each_path_link(from, to, [&hops](LinkId) { ++hops; });
  return hops;
}

}  // namespace groupcast::net
