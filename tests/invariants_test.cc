// Tests of the tree-invariant checker (core/invariants.h) and of the two
// builders of its TreeView.
//
// InvariantRules pins each rule's description on a hand-built view, and the
// order the checker reports them in.  InvariantOracle runs node-runtime
// recovery cells and compares the flat checker, over the runtime's
// shard-filled view, with a copy of the node-walking checker it replaced.
// TreeView compares the runtime's per-shard view with the one-thread
// core::tree_view over the same nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/invariants.h"
#include "core/node.h"
#include "metrics/experiment.h"
#include "metrics/harness_common.h"

namespace groupcast {
namespace {

using core::TreeView;
using overlay::kNoPeer;
using overlay::PeerId;
using Strings = std::vector<std::string>;

// ------------------------------------------------- hand-built views

struct Row {
  bool live = true;
  bool member = true;
  PeerId parent = kNoPeer;
  std::vector<PeerId> children;
};

Row departed() { return Row{false, false, kNoPeer, {}}; }
Row off_tree(std::vector<PeerId> children = {}) {
  return Row{true, false, kNoPeer, std::move(children)};
}
Row on_tree(PeerId parent, std::vector<PeerId> children = {}) {
  return Row{true, true, parent, std::move(children)};
}

TreeView make_view(const std::vector<Row>& rows) {
  TreeView view(rows.size());
  for (PeerId p = 0; p < rows.size(); ++p) {
    view.live[p] = rows[p].live ? 1 : 0;
    view.member[p] = rows[p].member ? 1 : 0;
    view.parent[p] = rows[p].parent;
    const auto count = static_cast<std::uint32_t>(rows[p].children.size());
    view.child_begin[p + 1] = view.child_begin[p] + count;
    view.children.insert(view.children.end(), rows[p].children.begin(),
                         rows[p].children.end());
  }
  return view;
}

Strings check(const std::vector<Row>& rows,
              const std::vector<PeerId>& expected = {}) {
  return core::check_tree_invariants(make_view(rows), 0, expected).violations;
}

TEST(InvariantRules, ParentIsADepartedPeer) {
  EXPECT_EQ(check({on_tree(0), on_tree(2), departed()}),
            Strings{"parent is a departed peer (peer 1 -> 2)"});
}

TEST(InvariantRules, ParentIsOffTheTree) {
  // Peer 2 still lists peer 1, so only the parent side is reported.
  EXPECT_EQ(check({on_tree(0), on_tree(2), off_tree({1})}),
            Strings{"parent is off the tree (peer 1 -> 2)"});
}

TEST(InvariantRules, ParentDoesNotListChild) {
  // Reported parent first.
  EXPECT_EQ(check({on_tree(0), on_tree(0)}),
            Strings{"parent does not list child (peer 0 -> 1)"});
}

TEST(InvariantRules, ChildEdgeToDepartedPeer) {
  EXPECT_EQ(check({on_tree(0, {1}), departed()}),
            Strings{"child edge to departed peer (peer 0 -> 1)"});
}

TEST(InvariantRules, ChildIsOffTheTree) {
  EXPECT_EQ(check({on_tree(0, {1}), off_tree()}),
            Strings{"child is off the tree (peer 0 -> 1)"});
}

TEST(InvariantRules, ChildPointsAtAnotherParent) {
  EXPECT_EQ(check({on_tree(0, {1, 2}), on_tree(0, {2}), on_tree(0)}),
            Strings{"child points at another parent (peer 1 -> 2)"});
}

TEST(InvariantRules, CycleThroughParentLinks) {
  // A symmetric two-cycle beside the root: every edge is consistent
  // locally, only the walk sees the loop.
  EXPECT_EQ(check({on_tree(0), on_tree(2, {2}), on_tree(1, {1})}),
            Strings{"cycle through parent links (peer 1)"});
}

TEST(InvariantRules, SubscriberUnreachableFromRendezvous) {
  // Peer 1 roots a tree of its own; departed subscriber 2 is not expected.
  const auto view =
      make_view({on_tree(0, {3}), on_tree(1), departed(), on_tree(0)});
  const auto report = core::check_tree_invariants(view, 0, {1, 2, 3});
  EXPECT_EQ(report.violations,
            Strings{"subscriber unreachable from rendezvous (peer 1 -> 0)"});
  EXPECT_EQ(report.reachable_subscribers, 1u);
  EXPECT_EQ(report.stranded_subscribers, 1u);
  EXPECT_EQ(report.tree_nodes, 3u);
}

TEST(InvariantRules, DepartedRendezvousStrandsEveryLiveSubscriber) {
  const auto view = make_view({departed(), on_tree(1), on_tree(2)});
  const auto report = core::check_tree_invariants(view, 0, {1, 2});
  EXPECT_EQ(report.violations,
            (Strings{"subscriber unreachable from rendezvous (peer 1 -> 0)",
                     "subscriber unreachable from rendezvous (peer 2 -> 0)"}));
}

TEST(InvariantRules, ReportsThePerPeerPassThenCyclesThenReachability) {
  const std::vector<Row> rows = {
      on_tree(0, {1, 3, 4, 9}),  // 0: the rendezvous
      on_tree(0, {5}),           // 1: lists a departed child
      on_tree(7),                // 2: parent departed
      off_tree(),                // 3: listed by 0 while off the tree
      on_tree(6),                // 4: listed by 0, points at 6
      departed(),                // 5
      on_tree(0),                // 6: 0 does not list it
      departed(),                // 7
      on_tree(3),                // 8: parent off the tree
      on_tree(0),                // 9: consistent
      on_tree(11, {11}),         // 10: cycle with 11
      on_tree(10, {10}),         // 11
  };
  const auto report =
      core::check_tree_invariants(make_view(rows), 0, {1, 2, 5, 9, 10});
  EXPECT_EQ(report.violations,
            (Strings{"child is off the tree (peer 0 -> 3)",
                     "child points at another parent (peer 0 -> 4)",
                     "child edge to departed peer (peer 1 -> 5)",
                     "parent is a departed peer (peer 2 -> 7)",
                     "parent does not list child (peer 6 -> 4)",
                     "parent does not list child (peer 0 -> 6)",
                     "parent is off the tree (peer 8 -> 3)",
                     "cycle through parent links (peer 10)",
                     "subscriber unreachable from rendezvous (peer 2 -> 0)",
                     "subscriber unreachable from rendezvous (peer 10 -> 0)"}));
  EXPECT_EQ(report.tree_nodes, 9u);
  EXPECT_EQ(report.reachable_subscribers, 2u);
  EXPECT_EQ(report.stranded_subscribers, 2u);
}

// ------------------------------------------- the node-walking oracle

// The checker as it was before the flat view: walks the nodes directly,
// with a child vector per call and a hash-set BFS.  Kept here only as the
// reference the flat checker must agree with.
const core::GroupCastNode* at(
    const std::vector<const core::GroupCastNode*>& nodes, PeerId peer) {
  return peer < nodes.size() ? nodes[peer] : nullptr;
}

bool alive(const std::vector<const core::GroupCastNode*>& nodes, PeerId peer) {
  const auto* node = at(nodes, peer);
  return node != nullptr && node->running();
}

std::string describe(const char* what, PeerId a, PeerId b) {
  std::ostringstream os;
  os << what << " (peer " << a;
  if (b != kNoPeer) os << " -> " << b;
  os << ")";
  return os.str();
}

core::InvariantReport node_walking_check(
    const std::vector<const core::GroupCastNode*>& nodes, core::GroupId group,
    PeerId rendezvous, const std::vector<PeerId>& expected_subscribers) {
  core::InvariantReport report;
  const auto violation = [&report](std::string text) {
    report.violations.push_back(std::move(text));
  };
  for (PeerId p = 0; p < nodes.size(); ++p) {
    const auto* node = at(nodes, p);
    if (node == nullptr || !node->running()) continue;
    const bool member = node->on_tree(group);
    if (member) ++report.tree_nodes;
    if (member) {
      const auto parent = node->tree_parent(group);
      if (parent != p) {
        if (!alive(nodes, parent)) {
          violation(describe("parent is a departed peer", p, parent));
        } else if (!nodes[parent]->on_tree(group)) {
          violation(describe("parent is off the tree", p, parent));
        } else {
          const auto kids = nodes[parent]->tree_children(group);
          if (std::find(kids.begin(), kids.end(), p) == kids.end()) {
            violation(describe("parent does not list child", parent, p));
          }
        }
      }
    }
    for (const auto child : node->tree_children(group)) {
      if (!alive(nodes, child)) {
        violation(describe("child edge to departed peer", p, child));
        continue;
      }
      if (!nodes[child]->on_tree(group)) {
        violation(describe("child is off the tree", p, child));
      } else if (nodes[child]->tree_parent(group) != p) {
        violation(describe("child points at another parent", p, child));
      }
    }
  }
  {
    std::vector<std::uint8_t> mark(nodes.size(), 0);
    for (PeerId p = 0; p < nodes.size(); ++p) {
      if (!alive(nodes, p) || !nodes[p]->on_tree(group)) continue;
      if (mark[p] != 0) continue;
      std::vector<PeerId> walk;
      auto cursor = p;
      while (true) {
        if (mark[cursor] == 1) {
          violation(describe("cycle through parent links", cursor, kNoPeer));
          break;
        }
        if (mark[cursor] == 2) break;
        mark[cursor] = 1;
        walk.push_back(cursor);
        if (!alive(nodes, cursor) || !nodes[cursor]->on_tree(group)) break;
        const auto parent = nodes[cursor]->tree_parent(group);
        if (parent == cursor || parent == kNoPeer) break;
        if (!alive(nodes, parent)) break;
        cursor = parent;
      }
      for (const auto seen : walk) mark[seen] = 2;
    }
  }
  std::unordered_set<PeerId> reachable;
  if (alive(nodes, rendezvous) && nodes[rendezvous]->on_tree(group)) {
    std::deque<PeerId> frontier{rendezvous};
    reachable.insert(rendezvous);
    while (!frontier.empty()) {
      const auto head = frontier.front();
      frontier.pop_front();
      for (const auto child : nodes[head]->tree_children(group)) {
        if (!alive(nodes, child) || !nodes[child]->on_tree(group)) continue;
        if (reachable.insert(child).second) frontier.push_back(child);
      }
    }
  }
  for (const auto subscriber : expected_subscribers) {
    if (!alive(nodes, subscriber)) continue;
    if (reachable.count(subscriber)) {
      ++report.reachable_subscribers;
    } else {
      ++report.stranded_subscribers;
      violation(describe("subscriber unreachable from rendezvous", subscriber,
                         rendezvous));
    }
  }
  return report;
}

// ------------------------------------------------ live recovery cells

constexpr core::GroupId kGroup = 1;

struct CellShape {
  double loss = 0.0;
  double crash = 0.0;
  bool reliable = false;
};

// A recovery cell on the node runtime, driven by hand so the test can
// look at the tree between epochs: the group is created and advertised,
// the runtime's phases draw a fifth of the peers (pick_peers), subscribe
// them on the shard workers and settle (subscribe), then
// `shape.crash` of them crash at once and the tree repairs for six epochs
// under `shape.loss`.  `look` sees the runtime, the rendezvous and the
// subscribers right after the settle, right after the crashes and after
// every repair epoch.
template <typename Look>
void run_cell(std::size_t shards, CellShape shape, Look&& look) {
  metrics::ScenarioConfig config;
  config.peer_count = 400;
  config.groups = 1;
  config.group_size = 80;
  config.seed = 9100;
  config.shards = shards;
  config.recovery.enabled = true;
  config.recovery.loss_probability = shape.loss;
  config.recovery.reliable_data = shape.reliable;
  metrics::detail::NodeRuntime runtime(config, config.recovery,
                                       core::TransportOptions{});
  auto& nodes = runtime.nodes();
  const PeerId rendezvous = runtime.middleware().pick_rendezvous();
  nodes[rendezvous]->create_group(kGroup);
  runtime.advance(metrics::kEpoch);

  const auto subscribers =
      runtime.pick_peers(config.group_size, {&rendezvous, 1});
  runtime.subscribe(subscribers, {&kGroup, 1});
  look(runtime, rendezvous, subscribers);

  auto victims = subscribers;
  runtime.rng().shuffle(victims);
  victims.resize(static_cast<std::size_t>(shape.crash *
                                          static_cast<double>(victims.size())));
  for (const auto v : victims) nodes[v]->crash();
  look(runtime, rendezvous, subscribers);
  for (int e = 0; e < 6; ++e) {
    runtime.advance(metrics::kEpoch);
    look(runtime, rendezvous, subscribers);
  }
}

std::vector<const core::GroupCastNode*> node_views(
    metrics::detail::NodeRuntime& runtime) {
  std::vector<const core::GroupCastNode*> views;
  for (const auto& node : runtime.nodes()) views.push_back(node.get());
  return views;
}

// Returns the violations the cell showed over all its looks.
std::size_t expect_oracle_agrees(std::size_t shards, CellShape shape) {
  std::size_t violations = 0;
  run_cell(shards, shape,
           [&](metrics::detail::NodeRuntime& runtime, PeerId rendezvous,
               const std::vector<PeerId>& subscribers) {
             const auto oracle = node_walking_check(
                 node_views(runtime), kGroup, rendezvous, subscribers);
             const auto flat = core::check_tree_invariants(
                 runtime.tree_view(kGroup), rendezvous, subscribers);
             EXPECT_EQ(flat.violations, oracle.violations)
                 << shards << " shards";
             EXPECT_EQ(flat.tree_nodes, oracle.tree_nodes);
             EXPECT_EQ(flat.reachable_subscribers,
                       oracle.reachable_subscribers);
             EXPECT_EQ(flat.stranded_subscribers, oracle.stranded_subscribers);
             violations += oracle.violations.size();
           });
  return violations;
}

TEST(InvariantOracle, MatchesNodeWalkingCheckerOnCrashCells) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    expect_oracle_agrees(shards, CellShape{0.0, 0.15, false});
  }
}

// The lossy 30%-crash shape is the one bench_churn_recovery ends with
// violations on; here every look must agree, violations included.
TEST(InvariantOracle, MatchesNodeWalkingCheckerOnLossyThirtyPercentCrashes) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool reliable : {false, true}) {
      const auto seen =
          expect_oracle_agrees(shards, CellShape{0.2, 0.3, reliable});
      EXPECT_GT(seen, 0u) << "the cell must exercise the violation paths";
    }
  }
}

TEST(TreeView, RuntimeViewEqualsSerialViewAtOneTwoAndFourShards) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    run_cell(shards, CellShape{0.1, 0.3, true},
             [&](metrics::detail::NodeRuntime& runtime, PeerId,
                 const std::vector<PeerId>&) {
               const auto views = node_views(runtime);
               const auto serial = core::tree_view(views, kGroup);
               EXPECT_TRUE(runtime.tree_view(kGroup) == serial)
                   << shards << " shards";
               // Rows mirror the nodes; children keep join order.
               for (PeerId p = 0; p < views.size(); ++p) {
                 const bool running = views[p]->running();
                 ASSERT_EQ(serial.alive(p), running);
                 ASSERT_EQ(serial.on_tree(p),
                           running && views[p]->on_tree(kGroup));
                 if (!running) continue;
                 const auto kids = serial.children_of(p);
                 ASSERT_EQ(std::vector<PeerId>(kids.begin(), kids.end()),
                           views[p]->tree_children(kGroup));
               }
             });
  }
}

TEST(TreeView, SerialViewSkipsNeverDeployedPeers) {
  const auto view = core::tree_view({nullptr, nullptr}, kGroup);
  EXPECT_TRUE(view == TreeView(2));
  EXPECT_FALSE(view.alive(0));
  EXPECT_FALSE(view.alive(kNoPeer));
}

}  // namespace
}  // namespace groupcast
