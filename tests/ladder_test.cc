// AttachLadder in isolation: the retry ladder's rung order, join targets,
// cycle guard and orphan/dissolve state on plain inputs, with no node,
// transport or simulator.  Each test plays the node's side by hand: it
// starts or advances the ladder, and orphans, attaches or dissolves it.
#include <gtest/gtest.h>

#include <vector>

#include "core/ladder.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

using overlay::kNoPeer;
using overlay::PeerId;
using Rung = AttachLadder::Rung;

constexpr PeerId kSelf = 5;
constexpr PeerId kAdvert = 7;
constexpr PeerId kRendezvous = 9;
constexpr PeerId kBackup = 11;
constexpr PeerId kLostParent = 13;

AttachPoints points(bool replication = false, PeerId backup = kNoPeer) {
  return {kSelf, kAdvert, kRendezvous, backup, replication};
}

/// Every rung one climb passes, from start() to kTerminal.
std::vector<Rung> climb(AttachLadder& ladder, const AttachPoints& at) {
  std::vector<Rung> rungs{ladder.start(at)};
  while (rungs.back() != Rung::kTerminal) rungs.push_back(ladder.advance(at));
  return rungs;
}

const std::vector<Rung> kRegular{Rung::kAdvertParent, Rung::kRipple,
                                 Rung::kRendezvous, Rung::kTerminal};

TEST(AttachLadder, ClimbsAdvertParentRippleRendezvousThenEnds) {
  AttachLadder ladder;
  EXPECT_EQ(climb(ladder, points()), kRegular);
  EXPECT_EQ(ladder.rung(), Rung::kTerminal);
  EXPECT_THROW(ladder.advance(points()), PreconditionError);
}

TEST(AttachLadder, SkipsRungsWithoutAUsableTarget) {
  AttachLadder ladder;
  AttachPoints at = points();
  at.advert_parent = kNoPeer;  // no advertisement held
  EXPECT_EQ(climb(ladder, at),
            (std::vector<Rung>{Rung::kRipple, Rung::kRendezvous,
                               Rung::kTerminal}));
  at = points();
  at.rendezvous = kSelf;  // the rendezvous has no rendezvous rung
  at.advert_parent = kSelf;
  EXPECT_EQ(climb(ladder, at),
            (std::vector<Rung>{Rung::kRipple, Rung::kTerminal}));
  at = points();
  at.rendezvous = kNoPeer;  // never heard of it
  EXPECT_EQ(climb(ladder, at),
            (std::vector<Rung>{Rung::kAdvertParent, Rung::kRipple,
                               Rung::kTerminal}));
  // Orphaned by the advert parent itself: it is skipped.
  ladder.orphaned(kAdvert, 2, /*has_descendants=*/false);
  EXPECT_EQ(climb(ladder, points()),
            (std::vector<Rung>{Rung::kRipple, Rung::kRendezvous,
                               Rung::kTerminal}));
}

TEST(AttachLadder, BackupRungOnlyUnderReplicationWhileRecoveringWithBackup) {
  const std::vector<Rung> with_backup{Rung::kBackup, Rung::kAdvertParent,
                                      Rung::kRipple, Rung::kRendezvous,
                                      Rung::kTerminal};
  AttachLadder ladder;
  // A subscription is no recovery: the backup is not tried.
  EXPECT_EQ(climb(ladder, points(true, kBackup)), kRegular);
  ladder.orphaned(kLostParent, 2, /*has_descendants=*/true);
  EXPECT_EQ(climb(ladder, points(true, kBackup)), with_backup);
  EXPECT_EQ(climb(ladder, points(false, kBackup)), kRegular);
  EXPECT_EQ(climb(ladder, points(true, kNoPeer)), kRegular);
  EXPECT_EQ(climb(ladder, points(true, kSelf)), kRegular);
  EXPECT_EQ(climb(ladder, points(true, kLostParent)), kRegular);
  // Attached again, the recovery is over.
  ladder.attached();
  EXPECT_EQ(climb(ladder, points(true, kBackup)), kRegular);
}

TEST(AttachLadder, JoinTargetFollowsTheRung) {
  AttachLadder ladder;
  ladder.orphaned(kLostParent, 2, /*has_descendants=*/false);
  const AttachPoints at = points(true, kBackup);
  const std::vector<PeerId> none;
  ASSERT_EQ(ladder.start(at), Rung::kBackup);
  EXPECT_EQ(ladder.join_target(at, none, 0), kBackup);
  ASSERT_EQ(ladder.advance(at), Rung::kAdvertParent);
  EXPECT_EQ(ladder.join_target(at, none, 1), kAdvert);
  ASSERT_EQ(ladder.advance(at), Rung::kRipple);
  EXPECT_EQ(ladder.join_target(at, none, 0), kNoPeer);
  ASSERT_EQ(ladder.advance(at), Rung::kRendezvous);
  EXPECT_EQ(ladder.join_target(at, none, 0), kRendezvous);
}

TEST(AttachLadder, RendezvousRungRoundRobinsTheRendezvousThenReplicas) {
  AttachLadder ladder;
  AttachPoints at = points();
  at.advert_parent = kNoPeer;
  ASSERT_EQ(ladder.start(at), Rung::kRipple);
  ASSERT_EQ(ladder.advance(at), Rung::kRendezvous);
  const std::vector<PeerId> replicas{20, kSelf, 21};
  std::vector<PeerId> targets;
  for (std::size_t k = 0; k < 6; ++k) {
    targets.push_back(ladder.join_target(at, replicas, k));
  }
  // Self is never a target.
  EXPECT_EQ(targets, (std::vector<PeerId>{kRendezvous, 20, 21, kRendezvous,
                                          20, 21}));
  // A lost rendezvous is skipped too; with nothing left, no target.
  ladder.orphaned(kRendezvous, 2, /*has_descendants=*/false);
  EXPECT_EQ(ladder.join_target(at, replicas, 0), 20);
  EXPECT_EQ(ladder.join_target(at, replicas, 1), 21);
  EXPECT_EQ(ladder.join_target(at, replicas, 2), 20);
  EXPECT_EQ(ladder.join_target(at, std::vector<PeerId>{kSelf}, 0), kNoPeer);
}

TEST(AttachLadder, GuardAdmitsOnlyAttachPointsAtOrAboveTheOldDepth) {
  AttachLadder ladder;
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, kUnknownDepth));
  EXPECT_FALSE(ladder.attach_allowed(kSelf, kSelf, 0));
  // An orphan at depth 3 with descendants: its subtree reads depth >= 4.
  ladder.orphaned(kLostParent, 3, /*has_descendants=*/true);
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, 2));
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, 3));
  EXPECT_FALSE(ladder.attach_allowed(kSelf, 20, 4));
  EXPECT_FALSE(ladder.attach_allowed(kSelf, 20, kUnknownDepth));
  EXPECT_FALSE(ladder.attach_allowed(kSelf, kLostParent, 0));
  // A childless orphan is nobody's ancestor: only the lost parent is out.
  ladder.orphaned(kLostParent, 3, /*has_descendants=*/false);
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, 4));
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, kUnknownDepth));
  EXPECT_FALSE(ladder.attach_allowed(kSelf, kLostParent, 0));
  ladder.attached();
  EXPECT_TRUE(ladder.attach_allowed(kSelf, kLostParent, 9));
}

TEST(AttachLadder, RippleHitsCountOnlyWhileTheirRoundIsOpen) {
  AttachLadder ladder;
  ladder.orphaned(kLostParent, 3, /*has_descendants=*/true);
  EXPECT_FALSE(ladder.take_hit(kSelf, 20, 1));  // no search yet
  EXPECT_EQ(ladder.search(), 1u);
  EXPECT_FALSE(ladder.take_hit(kSelf, 21, 7));  // too deep: keep waiting
  EXPECT_TRUE(ladder.take_hit(kSelf, 20, 1));
  EXPECT_FALSE(ladder.take_hit(kSelf, 22, 1));  // the round is closed
  EXPECT_EQ(ladder.search(), 2u);
  ladder.cancel();
  EXPECT_FALSE(ladder.take_hit(kSelf, 20, 1));
}

TEST(AttachLadder, FirstDissolveWithChildrenRetriesUnguardedSecondFails) {
  AttachLadder ladder;
  ladder.orphaned(kLostParent, 3, /*has_descendants=*/true);
  ASSERT_FALSE(ladder.attach_allowed(kSelf, 20, 5));
  EXPECT_TRUE(ladder.dissolve(/*had_children=*/true));
  EXPECT_TRUE(ladder.attach_allowed(kSelf, 20, 5));  // unguarded retry
  // The retry still climbs as an orphan: the backup stays eligible.
  EXPECT_EQ(ladder.start(points(true, kBackup)), Rung::kBackup);
  EXPECT_FALSE(ladder.dissolve(/*had_children=*/true));
  // Failure ends the recovery.
  EXPECT_EQ(climb(ladder, points(true, kBackup)), kRegular);

  // Without children there is no retry; an attach re-arms it.
  AttachLadder childless;
  EXPECT_FALSE(childless.dissolve(/*had_children=*/false));
  AttachLadder rearmed;
  EXPECT_TRUE(rearmed.dissolve(/*had_children=*/true));
  rearmed.attached();
  EXPECT_TRUE(rearmed.dissolve(/*had_children=*/true));
}

TEST(AttachLadder, AttemptsCountPerLadderAndSurviveTheAttach) {
  AttachLadder ladder;
  ladder.start(points());
  ladder.attempted();
  ladder.attempted();
  EXPECT_EQ(ladder.attempts(), 2u);
  EXPECT_FALSE(ladder.attached());  // no recovery ended
  EXPECT_EQ(ladder.attempts(), 2u);
  ladder.orphaned(kLostParent, 1, /*has_descendants=*/false);
  ladder.start(points());
  EXPECT_EQ(ladder.attempts(), 0u);
  ladder.attempted();
  EXPECT_TRUE(ladder.attached());
  EXPECT_EQ(ladder.attempts(), 1u);
}

}  // namespace
}  // namespace groupcast::core
