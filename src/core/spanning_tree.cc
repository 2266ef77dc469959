#include "core/spanning_tree.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

const std::vector<overlay::PeerId> SpanningTree::kNoChildren{};

SpanningTree::SpanningTree(overlay::PeerId root) : root_(root) {
  parent_.emplace(root, root);
}

void SpanningTree::attach(overlay::PeerId child, overlay::PeerId parent) {
  GC_REQUIRE_MSG(contains(parent), "parent must already be on the tree");
  GC_REQUIRE(child != parent);
  if (contains(child)) return;
  parent_.emplace(child, parent);
  children_[parent].push_back(child);
  trace::counters().incr(child, trace::CounterId::kTreeEdges);
  trace::tracer().emit(0, trace::EventKind::kTreeEdgeAdded, child, parent);
}

void SpanningTree::mark_subscriber(overlay::PeerId p) {
  GC_REQUIRE_MSG(contains(p), "subscriber must be on the tree");
  subscribers_.insert(p);
}

overlay::PeerId SpanningTree::parent(overlay::PeerId p) const {
  const auto it = parent_.find(p);
  GC_REQUIRE_MSG(it != parent_.end(), "peer is not on the tree");
  return it->second;
}

const std::vector<overlay::PeerId>& SpanningTree::children(
    overlay::PeerId p) const {
  const auto it = children_.find(p);
  return it == children_.end() ? kNoChildren : it->second;
}

std::vector<overlay::PeerId> SpanningTree::nodes() const {
  std::vector<overlay::PeerId> out;
  out.reserve(parent_.size());
  for (const auto& [node, parent] : parent_) out.push_back(node);
  return out;
}

std::size_t SpanningTree::depth(overlay::PeerId p) const {
  std::size_t d = 0;
  overlay::PeerId at = p;
  while (at != root_) {
    at = parent(at);
    ++d;
    GC_ENSURE_MSG(d <= parent_.size(), "cycle in spanning tree");
  }
  return d;
}

std::size_t SpanningTree::max_depth() const {
  std::size_t best = 0;
  for (const auto& [node, parent] : parent_) {
    best = std::max(best, depth(node));
  }
  return best;
}

bool SpanningTree::is_consistent() const {
  if (!parent_.contains(root_)) return false;
  for (const auto& [node, up] : parent_) {
    if (node == root_) {
      if (up != root_) return false;
      continue;
    }
    // Walk to the root, bounded by the node count.
    overlay::PeerId at = node;
    std::size_t steps = 0;
    while (at != root_) {
      const auto it = parent_.find(at);
      if (it == parent_.end()) return false;
      at = it->second;
      if (++steps > parent_.size()) return false;  // cycle
    }
  }
  // children_ must mirror parent_.
  for (const auto& [node, kids] : children_) {
    for (const auto kid : kids) {
      const auto it = parent_.find(kid);
      if (it == parent_.end() || it->second != node) return false;
    }
  }
  return true;
}

}  // namespace groupcast::core
