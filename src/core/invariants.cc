#include "core/invariants.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace groupcast::core {

namespace {

const GroupCastNode* at(const std::vector<const GroupCastNode*>& nodes,
                        overlay::PeerId peer) {
  return peer < nodes.size() ? nodes[peer] : nullptr;
}

bool alive(const std::vector<const GroupCastNode*>& nodes,
           overlay::PeerId peer) {
  const auto* node = at(nodes, peer);
  return node != nullptr && node->running();
}

std::string describe(const char* what, overlay::PeerId a,
                     overlay::PeerId b) {
  std::ostringstream os;
  os << what << " (peer " << a;
  if (b != overlay::kNoPeer) os << " -> " << b;
  os << ")";
  return os.str();
}

}  // namespace

void fill_tree_row(TreeView& view, overlay::PeerId p,
                   const GroupCastNode* node, GroupId group,
                   std::vector<overlay::PeerId>& children) {
  if (node == nullptr || !node->running()) return;
  view.live[p] = 1;
  if (node->on_tree(group)) {
    view.member[p] = 1;
    view.parent[p] = node->tree_parent(group);
  }
  const std::size_t before = children.size();
  node->for_each_tree_child(
      group, [&children](overlay::PeerId child) { children.push_back(child); });
  view.child_begin[p + 1] =
      static_cast<std::uint32_t>(children.size() - before);
}

TreeView tree_view(const std::vector<const GroupCastNode*>& nodes,
                   GroupId group) {
  TreeView view(nodes.size());
  for (overlay::PeerId p = 0; p < nodes.size(); ++p) {
    fill_tree_row(view, p, nodes[p], group, view.children);
  }
  std::partial_sum(view.child_begin.begin(), view.child_begin.end(),
                   view.child_begin.begin());
  return view;
}

InvariantReport check_tree_invariants(
    const TreeView& view, overlay::PeerId rendezvous,
    const std::vector<overlay::PeerId>& expected_subscribers) {
  InvariantReport report;
  const auto violation = [&report](std::string text) {
    report.violations.push_back(std::move(text));
  };
  const std::size_t n = view.size();

  // listed[p]: p's parent lists p among its children.
  std::vector<std::uint8_t> listed(n, 0);
  for (overlay::PeerId p = 0; p < n; ++p) {
    for (const auto child : view.children_of(p)) {
      if (child < n && view.parent[child] == p) listed[child] = 1;
    }
  }

  // --- local-view symmetry + no edges to departed peers -----------------
  for (overlay::PeerId p = 0; p < n; ++p) {
    if (!view.alive(p)) continue;
    if (view.member[p] != 0) {
      ++report.tree_nodes;
      const auto parent = view.parent[p];
      if (parent != p) {
        if (!view.alive(parent)) {
          violation(describe("parent is a departed peer", p, parent));
        } else if (!view.on_tree(parent)) {
          violation(describe("parent is off the tree", p, parent));
        } else if (listed[p] == 0) {
          violation(describe("parent does not list child", parent, p));
        }
      }
    }
    for (const auto child : view.children_of(p)) {
      if (!view.alive(child)) {
        violation(describe("child edge to departed peer", p, child));
      } else if (!view.on_tree(child)) {
        // Transient while the child's join ack is in flight; after a
        // convergence window it means an inconsistent edge.
        violation(describe("child is off the tree", p, child));
      } else if (view.parent[child] != p) {
        violation(describe("child points at another parent", p, child));
      }
    }
  }

  // --- acyclicity of parent links --------------------------------------
  {
    // 0 = unvisited, 1 = on the current walk, 2 = proven acyclic.
    std::vector<std::uint8_t> mark(n, 0);
    std::vector<overlay::PeerId> walk;
    for (overlay::PeerId p = 0; p < n; ++p) {
      if (!view.on_tree(p) || mark[p] != 0) continue;
      walk.clear();
      auto cursor = p;
      while (true) {
        if (mark[cursor] == 1) {
          violation(describe("cycle through parent links", cursor,
                             overlay::kNoPeer));
          break;
        }
        if (mark[cursor] == 2) break;
        mark[cursor] = 1;
        walk.push_back(cursor);
        if (!view.on_tree(cursor)) break;
        const auto parent = view.parent[cursor];
        if (parent == cursor || !view.alive(parent)) break;  // reported above
        cursor = parent;
      }
      for (const auto seen : walk) mark[seen] = 2;
    }
  }

  // --- reachability of expected subscribers from the rendezvous ---------
  // FIFO breadth-first over child edges; `frontier` is the queue.
  std::vector<std::uint8_t> reachable(n, 0);
  if (view.on_tree(rendezvous)) {
    std::vector<overlay::PeerId> frontier{rendezvous};
    reachable[rendezvous] = 1;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const auto child : view.children_of(frontier[head])) {
        if (!view.on_tree(child) || reachable[child] != 0) continue;
        reachable[child] = 1;
        frontier.push_back(child);
      }
    }
  }
  for (const auto subscriber : expected_subscribers) {
    if (!view.alive(subscriber)) continue;  // crashed: nothing expected
    if (reachable[subscriber] != 0) {
      ++report.reachable_subscribers;
    } else {
      ++report.stranded_subscribers;
      violation(describe("subscriber unreachable from rendezvous",
                         subscriber, rendezvous));
    }
  }
  return report;
}

ReplicationInvariantReport check_replication_invariants(
    const std::vector<const GroupCastNode*>& nodes, GroupId group,
    const std::vector<std::vector<overlay::PeerId>>& sides) {
  ReplicationInvariantReport report;
  const auto violation = [&report](std::string text) {
    report.violations.push_back(std::move(text));
  };
  const bool healed = sides.empty();

  std::vector<overlay::PeerId> members;
  for (overlay::PeerId p = 0; p < nodes.size(); ++p) {
    if (!alive(nodes, p) || !nodes[p]->replica_state(group).member) continue;
    members.push_back(p);
    report.max_epoch =
        std::max(report.max_epoch, nodes[p]->replica_state(group).epoch);
  }

  // --- at most one leaseholder per partition side -----------------------
  const auto side_of = [&sides](overlay::PeerId p) -> std::size_t {
    for (std::size_t s = 0; s < sides.size(); ++s) {
      if (std::find(sides[s].begin(), sides[s].end(), p) != sides[s].end()) {
        return s;
      }
    }
    return sides.size();  // not listed: shared bucket
  };
  std::vector<overlay::PeerId> holder_of_side(sides.size() + 1,
                                              overlay::kNoPeer);
  for (const auto p : members) {
    if (!nodes[p]->is_leaseholder(group)) continue;
    ++report.leaseholders;
    auto& holder = holder_of_side[side_of(p)];
    if (holder != overlay::kNoPeer) {
      violation(describe(healed ? "two leaseholders after heal"
                                : "two leaseholders on one partition side",
                         holder, p));
    }
    holder = p;
  }

  // --- healed network: one agreed (epoch, leader), identical logs -------
  if (healed && !members.empty()) {
    const auto reference = members.front();
    const ReplState& ref = nodes[reference]->replica_state(group);
    for (const auto p : members) {
      const ReplState& repl = nodes[p]->replica_state(group);
      if (repl.epoch != ref.epoch || repl.leader != ref.leader) {
        violation(describe("members disagree on (epoch, leader) after heal",
                           reference, p));
      }
      if (repl.log != ref.log) {
        violation(describe("lease logs diverge after heal", reference, p));
      }
    }
  }

  // --- union of logs: every epoch has exactly one leader ----------------
  std::unordered_map<std::uint32_t, overlay::PeerId> union_log;
  std::unordered_set<std::uint32_t> conflicted;
  for (const auto p : members) {
    for (const auto& record : nodes[p]->replica_state(group).log) {
      const auto [it, inserted] = union_log.emplace(record.epoch,
                                                    record.leader);
      if (!inserted && it->second != record.leader &&
          conflicted.insert(record.epoch).second) {
        violation(describe("epoch committed under two leaders", it->second,
                           record.leader));
      }
    }
  }
  report.union_records = union_log.size();
  report.conflicting_records = conflicted.size();
  return report;
}

}  // namespace groupcast::core
