// EdgeLiveness in isolation: the tree-edge failure-detection rule driven
// by a fake clock, with no node, transport or simulator.  Each test plays
// one edge: the arrivals and sends of its two ends are stamped by hand,
// and the ends' ticks ask the rule what is due.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/liveness.h"

namespace groupcast::core {
namespace {

using Due = EdgeLiveness::Due;
using sim::SimTime;

constexpr SimTime kInterval = SimTime::millis(500);

SimTime ticks(std::int64_t n) { return kInterval * n; }

/// A child attached at `attached_at` and ticking at `tick_phase` + k·I
/// (k >= 1), whose parent sends a beat at every j·I; beat j arrives
/// `latency` later unless `lost(j)`.  Each beat due to the parent is
/// recorded as sent.  Returns the time of the tick that gives the parent
/// up, or nullopt if none does within `horizon` ticks.
template <typename Lost>
std::optional<SimTime> child_gives_up(const EdgeLiveness& rule,
                                      SimTime attached_at, SimTime latency,
                                      SimTime tick_phase, std::int64_t horizon,
                                      Lost lost) {
  TreeLiveness tree;
  rule.attached(tree, attached_at);
  std::int64_t next_beat = 0;
  for (std::int64_t k = 1; k <= horizon; ++k) {
    const SimTime now = ticks(k) + tick_phase;
    for (; ticks(next_beat) + latency <= now; ++next_beat) {
      if (!lost(next_beat)) tree.parent.heard(ticks(next_beat) + latency);
    }
    const Due due = rule.parent_due(tree, now);
    if (due == Due::kDead) return now;
    if (due == Due::kBeat) tree.parent.sent(now);
  }
  return std::nullopt;
}

TEST(EdgeLiveness, LosingFewerBeatsThanTheFloorNeverGivesUp) {
  for (const std::size_t floor : {std::size_t{2}, std::size_t{6}}) {
    const EdgeLiveness rule(kInterval, floor, /*adaptive=*/false);
    const auto lost_run = [](std::size_t n) {
      return [n](std::int64_t j) {
        return j >= 10 && j < 10 + static_cast<std::int64_t>(n);
      };
    };
    const SimTime latency = SimTime::millis(120);
    for (std::size_t k = 0; k < floor; ++k) {
      EXPECT_FALSE(child_gives_up(rule, SimTime::zero(), latency,
                                  SimTime::zero(), 60, lost_run(k))
                       .has_value())
          << "floor " << floor << ", " << k << " beats lost";
    }
    // `floor` lost beats in a row: given up on the first tick past the
    // deadline, counted from the last beat that arrived (beat 9).
    const auto gave_up = child_gives_up(rule, SimTime::zero(), latency,
                                        SimTime::zero(), 60, lost_run(floor));
    ASSERT_TRUE(gave_up.has_value()) << "floor " << floor;
    const SimTime silent = *gave_up - (ticks(9) + latency);
    EXPECT_GT(silent, rule.parent_deadline(0.0));
    EXPECT_LE(silent, rule.parent_deadline(0.0) + kInterval);
  }
}

TEST(EdgeLiveness, RoundTripLongerThanTheDeadlineDoesNotMatter) {
  // 1.6 s each way: a 3.2 s round trip against a 1 s deadline.  Beats are
  // one-way, so only the gaps between arrivals count.
  const EdgeLiveness rule(kInterval, 2, /*adaptive=*/false);
  const SimTime latency = SimTime::millis(1600);
  ASSERT_GT(latency * 2, rule.parent_deadline(0.0));
  // The child attached when the JoinAck sent at time 0 arrived.
  EXPECT_FALSE(child_gives_up(rule, latency, latency, latency, 200,
                              [](std::int64_t) { return false; })
                   .has_value());
  // The parent's side of the same edge: the child's join (sent at time
  // 0) and then its beats, one per interval, each arrive 1.6 s after they
  // were sent, and the child is never pruned.
  TreeLiveness parent;
  EdgeStamps child;
  child.heard(latency);  // the join: the parent's clock for it starts here
  std::int64_t next_beat = 1;
  for (std::int64_t k = 1; k <= 200; ++k) {
    const SimTime now = latency + ticks(k) + SimTime::millis(70);
    for (; ticks(next_beat) + latency <= now; ++next_beat) {
      child.heard(ticks(next_beat) + latency);
    }
    const Due due = rule.child_due(parent, child, now);
    ASSERT_NE(due, Due::kDead) << "tick " << k;
    if (due == Due::kBeat) child.sent(now);
  }
}

TEST(EdgeLiveness, TrafficSuppressesBeatsBothWays) {
  const EdgeLiveness rule(kInterval, 2, /*adaptive=*/false);
  TreeLiveness tree;
  EdgeStamps child;
  rule.attached(tree, SimTime::zero());
  child.heard(SimTime::zero());
  // Data every 100 ms in both directions of both edges: no tick is owed
  // a beat, and no neighbour goes stale.
  for (std::int64_t ms = 100; ms <= 20'000; ms += 100) {
    const SimTime now = SimTime::millis(static_cast<double>(ms));
    tree.parent.heard(now);
    tree.parent.sent(now);
    child.heard(now);
    child.sent(now);
    if (ms % 500 == 0) {  // a tick 50 ms after the data
      const SimTime tick = now + SimTime::millis(50);
      EXPECT_EQ(rule.parent_due(tree, tick), Due::kNothing) << ms;
      EXPECT_EQ(rule.child_due(tree, child, tick), Due::kNothing) << ms;
    }
  }
  // The data stops but arrivals go on (the other end's beats): a beat is
  // owed exactly one interval after the last send.
  const SimTime last = SimTime::millis(20'000);
  const SimTime almost = last + kInterval - SimTime::micros(1);
  tree.parent.heard(almost);
  child.heard(almost);
  EXPECT_EQ(rule.parent_due(tree, almost), Due::kNothing);
  EXPECT_EQ(rule.child_due(tree, child, almost), Due::kNothing);
  EXPECT_EQ(rule.parent_due(tree, last + kInterval), Due::kBeat);
  EXPECT_EQ(rule.child_due(tree, child, last + kInterval), Due::kBeat);
}

TEST(EdgeLiveness, NewsWindowForcesEveryBeat) {
  const EdgeLiveness rule(kInterval, 2, /*adaptive=*/false);
  TreeLiveness tree;
  EdgeStamps child;
  const SimTime changed = SimTime::seconds(10);
  child.heard(changed);
  child.sent(changed);
  EXPECT_EQ(rule.child_due(tree, child, changed + SimTime::millis(1)),
            Due::kNothing);
  rule.position_changed(tree, changed);
  // For one floor-sized window every tick beats, however fresh the
  // last send.
  for (SimTime now = changed; now < changed + ticks(2);
       now += SimTime::millis(100)) {
    child.heard(now);
    child.sent(now);
    EXPECT_EQ(rule.child_due(tree, child, now), Due::kBeat) << now;
  }
  const SimTime after = changed + ticks(2);
  child.heard(after);
  child.sent(after);
  EXPECT_EQ(rule.child_due(tree, child, after), Due::kNothing);
}

TEST(EdgeLiveness, AdaptiveDetectionWidensUpToTwelveIntervals) {
  const EdgeLiveness fixed(kInterval, 2, /*adaptive=*/false);
  const EdgeLiveness adaptive(kInterval, 2, /*adaptive=*/true);
  // The deadline follows the miss estimate from the floor to the cap.
  EXPECT_EQ(adaptive.parent_deadline(0.0), ticks(2));
  EXPECT_EQ(adaptive.parent_deadline(0.2), ticks(6));
  EXPECT_EQ(adaptive.parent_deadline(0.4), ticks(11));
  EXPECT_EQ(adaptive.parent_deadline(0.5), ticks(12));
  EXPECT_EQ(adaptive.parent_deadline(1.0), ticks(12));
  for (const double miss : {0.0, 0.2, 0.5, 1.0}) {
    EXPECT_EQ(fixed.parent_deadline(miss), ticks(2));
  }
  // A parent that falls silent after a quiet stretch: the fixed rule
  // gives up after two intervals; under adaptive detection every silent
  // tick scores a miss, so the window widens as the silence goes on and
  // tops out at kMaxAdaptiveMisses.
  const auto silent_from_20 = [](std::int64_t j) { return j >= 20; };
  const SimTime phase = SimTime::millis(250);
  const auto fixed_gave_up = child_gives_up(
      fixed, SimTime::zero(), SimTime::zero(), phase, 100, silent_from_20);
  const auto adaptive_gave_up = child_gives_up(
      adaptive, SimTime::zero(), SimTime::zero(), phase, 100, silent_from_20);
  ASSERT_TRUE(fixed_gave_up.has_value());
  ASSERT_TRUE(adaptive_gave_up.has_value());
  EXPECT_EQ(*fixed_gave_up - ticks(19), ticks(2) + phase);
  EXPECT_EQ(*adaptive_gave_up - ticks(19),
            ticks(kMaxAdaptiveMisses) + phase);
  // A lossy edge (every other beat lost) already runs at the cap, and it
  // is still detected no later.
  const auto lossy = [](std::int64_t j) { return j % 2 == 1 || j >= 41; };
  const auto lossy_gave_up = child_gives_up(
      adaptive, SimTime::zero(), SimTime::zero(), phase, 100, lossy);
  ASSERT_TRUE(lossy_gave_up.has_value());
  EXPECT_EQ(*lossy_gave_up - ticks(40), ticks(kMaxAdaptiveMisses) + phase);
  // A floor above the cap is never narrowed.
  const EdgeLiveness wide(kInterval, 15, /*adaptive=*/true);
  EXPECT_EQ(wide.parent_deadline(0.0), ticks(15));
  EXPECT_EQ(wide.parent_deadline(1.0), ticks(15));
}

TEST(EdgeLiveness, ChildPruneDeadlineOutlastsEveryParentDeadline) {
  for (const bool adaptive : {false, true}) {
    for (std::size_t floor = 1; floor <= 20; ++floor) {
      const EdgeLiveness rule(kInterval, floor, adaptive);
      SimTime widest = SimTime::zero();
      for (int step = 0; step <= 100; ++step) {
        const SimTime deadline = rule.parent_deadline(step / 100.0);
        EXPECT_LT(deadline, rule.child_deadline())
            << "floor " << floor << ", adaptive " << adaptive;
        widest = std::max(widest, deadline);
      }
      EXPECT_EQ(rule.child_deadline(), widest + kInterval);
      // Both ends fall silent at once: the child gives its parent up
      // before the parent prunes it, whatever the ticks' phases.
      for (const SimTime child_phase :
           {SimTime::zero(), SimTime::millis(1), SimTime::millis(499)}) {
        const auto gave_up = child_gives_up(
            rule, SimTime::zero(), SimTime::zero(), child_phase, 200,
            [](std::int64_t j) { return j >= 1; });
        ASSERT_TRUE(gave_up.has_value());
        TreeLiveness parent;
        EdgeStamps child;
        std::optional<SimTime> pruned;
        for (std::int64_t k = 1; !pruned && k <= 200; ++k) {
          const SimTime now = ticks(k) + SimTime::millis(333);
          if (rule.child_due(parent, child, now) == Due::kDead) pruned = now;
        }
        ASSERT_TRUE(pruned.has_value());
        EXPECT_LT(*gave_up, *pruned)
            << "floor " << floor << ", adaptive " << adaptive;
      }
    }
  }
}

TEST(EdgeLiveness, RequiresAFloorOfOneAndANonNegativeInterval) {
  EXPECT_THROW((void)EdgeLiveness(kInterval, 0, false), PreconditionError);
  EXPECT_THROW((void)EdgeLiveness(SimTime::micros(-1), 2, false),
               PreconditionError);
  EXPECT_FALSE(EdgeLiveness(SimTime::zero(), 2, false).enabled());
  EXPECT_TRUE(EdgeLiveness(kInterval, 2, false).enabled());
}

}  // namespace
}  // namespace groupcast::core
