#include "overlay/graph.h"

#include <algorithm>
#include <queue>

#include "util/require.h"

namespace groupcast::overlay {

namespace {

// Compaction trigger: once relocation garbage exceeds the live half of a
// non-trivial arena, rebuild.  Amortized O(1) per append — every relocated
// slot is copied at most once more before enough garbage accrues again.
constexpr std::size_t kCompactionFloor = 1024;

}  // namespace

OverlayGraph::OverlayGraph(std::size_t peer_count)
    : out_(peer_count), in_(peer_count) {}

void OverlayGraph::append(Span& span, PeerId value) {
  if (span.size == span.capacity) {
    // Relocate the span to the arena tail with doubled capacity; the old
    // run becomes garbage until the next compaction.
    const std::uint32_t grown = span.capacity == 0 ? 4 : span.capacity * 2;
    const std::size_t at = arena_.size();
    arena_.resize(at + grown, kNoPeer);
    std::copy(arena_.begin() + span.offset,
              arena_.begin() + span.offset + span.size, arena_.begin() + at);
    live_ += grown - span.capacity;
    span.offset = static_cast<std::uint32_t>(at);
    span.capacity = grown;
  }
  arena_[span.offset + span.size] = value;
  ++span.size;
  if (arena_.size() > kCompactionFloor && arena_.size() - live_ > live_) {
    compact();
  }
}

void OverlayGraph::compact() {
  std::vector<PeerId> packed;
  packed.reserve(edge_count_ * 2);
  const auto repack = [&](Span& span) {
    const auto at = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), arena_.begin() + span.offset,
                  arena_.begin() + span.offset + span.size);
    span.offset = at;
    span.capacity = span.size;
  };
  for (auto& span : out_) repack(span);
  for (auto& span : in_) repack(span);
  arena_ = std::move(packed);
  live_ = arena_.size();
}

std::size_t OverlayGraph::memory_bytes() const {
  return sizeof(*this) + arena_.capacity() * sizeof(PeerId) +
         (out_.capacity() + in_.capacity()) * sizeof(Span);
}

bool OverlayGraph::add_edge(PeerId from, PeerId to) {
  GC_REQUIRE(from < out_.size() && to < out_.size());
  GC_REQUIRE_MSG(from != to, "self edges are not allowed");
  if (has_edge(from, to)) return false;
  append(out_[from], to);
  append(in_[to], from);
  ++edge_count_;
  return true;
}

bool OverlayGraph::has_edge(PeerId from, PeerId to) const {
  GC_REQUIRE(from < out_.size() && to < out_.size());
  const auto outs = view(out_[from]);
  return std::find(outs.begin(), outs.end(), to) != outs.end();
}

std::vector<PeerId> OverlayGraph::neighbors(PeerId p) const {
  GC_REQUIRE(p < out_.size());
  const auto outs = view(out_[p]);
  std::vector<PeerId> result(outs.begin(), outs.end());
  for (const PeerId q : view(in_[p])) {
    if (std::find(result.begin(), result.end(), q) == result.end()) {
      result.push_back(q);
    }
  }
  return result;
}

std::size_t OverlayGraph::degree(PeerId p) const {
  GC_REQUIRE(p < out_.size());
  const auto outs = view(out_[p]);
  std::size_t count = outs.size();
  for (const PeerId q : view(in_[p])) {
    if (std::find(outs.begin(), outs.end(), q) == outs.end()) ++count;
  }
  return count;
}

OverlayGraph::Connectivity OverlayGraph::connectivity() const {
  Connectivity result;
  const std::size_t n = out_.size();
  std::vector<char> seen(n, 0);
  std::size_t active = 0;
  PeerId start = kNoPeer;
  for (PeerId p = 0; p < n; ++p) {
    if (out_[p].size != 0 || in_[p].size != 0) {
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
  const std::size_t n = out_.size();
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
  const std::size_t n = out_.size();
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
