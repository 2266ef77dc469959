#include "overlay/graph.h"

#include <algorithm>
#include <queue>

#include "util/require.h"

namespace groupcast::overlay {

OverlayGraph::OverlayGraph(std::size_t peer_count) : spans_(peer_count) {}

void OverlayGraph::reserve_one(Span& span) {
  if (span.size < span.capacity) return;
  // Relocate the span to the arena tail with doubled capacity; the old
  // run becomes garbage until the next compaction.
  const std::uint32_t grown = span.capacity == 0 ? 4 : span.capacity * 2;
  const std::size_t at = arena_.size();
  arena_.resize(at + grown, kNoPeer);
  std::copy(arena_.begin() + span.offset,
            arena_.begin() + span.offset + span.size, arena_.begin() + at);
  span.offset = static_cast<std::uint32_t>(at);
  span.capacity = grown;
}

void OverlayGraph::compact() {
  std::size_t entries = 0;
  for (const auto& span : spans_) entries += span.size;
  std::vector<PeerId> packed;
  packed.reserve(entries);
  for (auto& span : spans_) {
    const auto at = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), arena_.begin() + span.offset,
                  arena_.begin() + span.offset + span.size);
    span.offset = at;
    span.capacity = span.size;
  }
  arena_ = std::move(packed);
}

std::size_t OverlayGraph::memory_bytes() const {
  return sizeof(*this) + arena_.capacity() * sizeof(PeerId) +
         spans_.capacity() * sizeof(Span);
}

bool OverlayGraph::add_edge(PeerId from, PeerId to) {
  GC_REQUIRE(from < spans_.size() && to < spans_.size());
  GC_REQUIRE_MSG(from != to, "self edges are not allowed");
  if (has_edge(from, to)) return false;

  // `to` joins the end of from's out-prefix.  If it was an in-only
  // neighbour, rotate it out of the tail; otherwise shift the tail right
  // by one.  Either way the tail keeps its arrival order.
  Span& src = spans_[from];
  const auto row = arena_.begin() + src.offset;
  const auto found = std::find(row + src.out, row + src.size, to);
  if (found != row + src.size) {
    std::rotate(row + src.out, found, found + 1);
  } else {
    reserve_one(src);
    const auto base = arena_.begin() + src.offset;
    std::copy_backward(base + src.out, base + src.size, base + src.size + 1);
    base[src.out] = to;
    ++src.size;
  }
  ++src.out;

  // `from` joins to's in-only tail unless it is already an out-link there.
  Span& dst = spans_[to];
  const auto outs = arena_.begin() + dst.offset;
  if (std::find(outs, outs + dst.out, from) == outs + dst.out) {
    reserve_one(dst);
    arena_[dst.offset + dst.size] = from;
    ++dst.size;
  }
  ++edge_count_;
  return true;
}

bool OverlayGraph::has_edge(PeerId from, PeerId to) const {
  GC_REQUIRE(from < spans_.size() && to < spans_.size());
  const auto outs = out_neighbors(from);
  return std::find(outs.begin(), outs.end(), to) != outs.end();
}

OverlayGraph::Connectivity OverlayGraph::connectivity() const {
  Connectivity result;
  const std::size_t n = spans_.size();
  std::vector<char> seen(n, 0);
  std::size_t active = 0;
  PeerId start = kNoPeer;
  for (PeerId p = 0; p < n; ++p) {
    if (spans_[p].size != 0) {
      ++active;
      if (start == kNoPeer) start = p;
    } else {
      ++result.isolated_peers;
    }
  }
  if (active == 0) {
    result.connected = n <= 1;
    return result;
  }
  std::queue<PeerId> frontier;
  frontier.push(start);
  seen[start] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const PeerId at = frontier.front();
    frontier.pop();
    for (const PeerId nbr : neighbors(at)) {
      if (!seen[nbr]) {
        seen[nbr] = 1;
        ++reached;
        frontier.push(nbr);
      }
    }
  }
  result.largest_component = reached;
  result.connected = reached == active && result.isolated_peers == 0;
  return result;
}

double OverlayGraph::average_hop_distance(util::Rng& rng,
                                          std::size_t samples) const {
  const std::size_t n = spans_.size();
  if (n < 2) return 0.0;
  double total = 0.0;
  std::size_t counted = 0;
  std::vector<std::int32_t> dist(n);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto src = static_cast<PeerId>(rng.uniform_index(n));
    // BFS from src; accumulate distance to a random reachable target.
    std::fill(dist.begin(), dist.end(), -1);
    std::queue<PeerId> frontier;
    frontier.push(src);
    dist[src] = 0;
    while (!frontier.empty()) {
      const PeerId at = frontier.front();
      frontier.pop();
      for (const PeerId nbr : neighbors(at)) {
        if (dist[nbr] < 0) {
          dist[nbr] = dist[at] + 1;
          frontier.push(nbr);
        }
      }
    }
    const auto dst = static_cast<PeerId>(rng.uniform_index(n));
    if (dst != src && dist[dst] > 0) {
      total += dist[dst];
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

double OverlayGraph::clustering_coefficient() const {
  const std::size_t n = spans_.size();
  double total = 0.0;
  std::size_t counted = 0;
  for (PeerId p = 0; p < n; ++p) {
    const auto nbrs = neighbors(p);
    if (nbrs.size() < 2) continue;
    std::size_t closed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (connected(nbrs[i], nbrs[j])) ++closed;
      }
    }
    const double possible =
        static_cast<double>(nbrs.size() * (nbrs.size() - 1)) / 2.0;
    total += static_cast<double>(closed) / possible;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace groupcast::overlay
