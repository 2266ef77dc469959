// Tests for the timer-wheel scheduler features added on top of the basic
// event-loop semantics covered by sim_test.cc: cancellable handles, the
// fixed-signature timer path, FIFO ordering across wheel levels and the
// overflow heap, keyed-event ordering, run_until boundaries, and a randomized
// golden-equality check against a reference (when, seq) priority model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "sim/simulator.h"
#include "util/require.h"
#include "util/rng.h"

namespace groupcast::sim {
namespace {

void push_arg(void* context, std::uint64_t arg) {
  static_cast<std::vector<std::uint64_t>*>(context)->push_back(arg);
}

TEST(TimerWheel, CancelPreventsFiring) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  const auto keep =
      simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 1);
  const auto drop =
      simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 2);
  EXPECT_TRUE(simulator.timer_pending(drop));
  EXPECT_TRUE(simulator.cancel(drop));
  EXPECT_FALSE(simulator.timer_pending(drop));
  EXPECT_FALSE(simulator.cancel(drop));  // already cancelled: stale
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_EQ(simulator.run(), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(simulator.cancel(keep));  // already fired: stale
}

TEST(TimerWheel, HandlesAreGenerationChecked) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  const auto first =
      simulator.schedule_timer(SimTime::millis(1), &push_arg, &fired, 1);
  simulator.run();
  // The slab slot is recycled by the next schedule; the old handle must
  // not be able to cancel the new event.
  const auto second =
      simulator.schedule_timer(SimTime::millis(1), &push_arg, &fired, 2);
  EXPECT_FALSE(simulator.cancel(first));
  EXPECT_TRUE(simulator.timer_pending(second));
  simulator.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
}

TEST(TimerWheel, CancelThenScheduleMovesTheDeadline) {
  // How a protocol timer re-arms: cancel the pending handle, schedule a
  // fresh one.  The new event takes the new deadline and, at a shared
  // instant, a FIFO position behind every event already queued there.
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  auto moved =
      simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 1);
  simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 2);
  simulator.schedule_timer(SimTime::millis(20), &push_arg, &fired, 3);
  EXPECT_TRUE(simulator.cancel(moved));
  moved = simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 1);
  const auto later =
      simulator.schedule_timer(SimTime::millis(10), &push_arg, &fired, 4);
  EXPECT_TRUE(simulator.cancel(later));
  simulator.schedule_timer(SimTime::millis(30), &push_arg, &fired, 4);
  EXPECT_EQ(simulator.pending(), 4u);
  simulator.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 1, 3, 4}));
  EXPECT_EQ(simulator.now(), SimTime::millis(30));
}

TEST(TimerWheel, FifoTieBreakAcrossWheelLevels) {
  // Events for the same instant can be *scheduled* from different
  // distances: a long delay parks high in the wheel and cascades down,
  // a short one lands straight in a level-0 slot.  Scheduling order must
  // still win the tie, whatever path each event took.
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  const auto target = SimTime::millis(100);
  // Scheduled 100ms out: enters an upper wheel level.
  simulator.schedule_timer(target, &push_arg, &fired, 0);
  simulator.schedule_timer(target, &push_arg, &fired, 1);
  // Hop to 99.9ms, then schedule the same instant from close range
  // (level 0 of the wheel).
  simulator.schedule_at(SimTime::micros(99900), [&] {
    simulator.schedule_at(target, [&fired] { fired.push_back(2); });
    simulator.schedule_timer_at(target, &push_arg, &fired, 3);
  });
  simulator.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(TimerWheel, RunUntilFiresDeadlineEventsAndKeepsLaterOnes) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  simulator.schedule_timer(SimTime::millis(10), &push_arg, &fired, 1);
  simulator.schedule_timer(SimTime::millis(20), &push_arg, &fired, 2);
  simulator.schedule_timer(SimTime::millis(30), &push_arg, &fired, 3);
  // Deadline exactly on an event: it fires; the later one stays queued.
  EXPECT_EQ(simulator.run_until(SimTime::millis(20)), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_EQ(simulator.now(), SimTime::millis(20));
  // An idle stretch advances the clock to the deadline without firing.
  EXPECT_EQ(simulator.run_until(SimTime::millis(25)), 0u);
  EXPECT_EQ(simulator.now(), SimTime::millis(25));
  // The remaining event still fires at its own time, not the fast-forward.
  EXPECT_EQ(simulator.run(), 1u);
  EXPECT_EQ(simulator.now(), SimTime::millis(30));
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TimerWheel, RunUntilDeadlineInsideAnUpperLevelSlot) {
  // From cursor 0, 100 us and 120 us share level-1 slot 1, which spans
  // [64, 127]; 5000 us sits in a level-2 slot.
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  simulator.schedule_timer(SimTime::micros(120), &push_arg, &fired, 2);
  simulator.schedule_timer(SimTime::micros(100), &push_arg, &fired, 1);
  simulator.schedule_timer(SimTime::micros(5000), &push_arg, &fired, 3);
  std::int64_t next_us = 0;
  ASSERT_TRUE(simulator.peek_next_event(next_us));
  EXPECT_EQ(next_us, 100);  // the peek stays exact
  // Deadline inside the slot but before its earliest event: nothing fires.
  EXPECT_EQ(simulator.run_until(SimTime::micros(90)), 0u);
  EXPECT_EQ(simulator.now(), SimTime::micros(90));
  // Deadline inside the slot between its two events: only the first fires.
  EXPECT_EQ(simulator.run_until(SimTime::micros(110)), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(simulator.now(), SimTime::micros(110));
  // Deadline before a whole upper-level slot: it stays queued.
  EXPECT_EQ(simulator.run_until(SimTime::micros(4000)), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(simulator.pending(), 1u);
  // Deadline past the slot's end: it fires without a chain walk.
  EXPECT_EQ(simulator.run_until(SimTime::micros(9000)), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), SimTime::micros(9000));
}

TEST(TimerWheel, OverflowHorizonEventsFireInOrder) {
  // ~19.1 simulated hours fit the wheel (2^36 us); park events past the
  // horizon in the overflow heap, mix in near events, and check global
  // order plus cancellation inside the overflow.
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  const auto far = SimTime::seconds(90000);   // 9e10 us > 2^36
  const auto farther = SimTime::seconds(180000);
  simulator.schedule_timer(farther, &push_arg, &fired, 3);
  const auto dropped =
      simulator.schedule_timer(farther, &push_arg, &fired, 99);
  simulator.schedule_timer(far, &push_arg, &fired, 2);
  simulator.schedule_timer(SimTime::millis(1), &push_arg, &fired, 1);
  EXPECT_TRUE(simulator.cancel(dropped));
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), farther);
}

// --- keyed events (message deliveries): keyed first, in key order -------

/// Keyed handler: records the event's argument.
void push_keyed_arg(void* context, std::uint64_t /*key*/, std::uint64_t arg) {
  static_cast<std::vector<std::uint64_t>*>(context)->push_back(arg);
}

TEST(TimerWheel, KeyedEventFiresBeforePlainTimerAtSameInstant) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  simulator.set_keyed_handler(&push_keyed_arg, &fired);
  const auto at = SimTime::millis(3);
  simulator.schedule_timer_at(at, &push_arg, &fired, 1);
  simulator.schedule_keyed_at(at, /*key=*/7, 2);
  simulator.schedule_timer_at(at, &push_arg, &fired, 3);
  EXPECT_EQ(simulator.pending(), 3u);
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 1, 3}));
  EXPECT_EQ(simulator.events_fired(), 3u);
}

TEST(TimerWheel, KeyedEventsFireInAscendingKeyOrder) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  simulator.set_keyed_handler(&push_keyed_arg, &fired);
  const auto at = SimTime::millis(2);
  // Scheduled out of key order, partly from inside an earlier event, and
  // with the largest key: the firing order is the key order.  A plain
  // timer one microsecond earlier still fires first.
  simulator.schedule_keyed_at(at, 30, 30);
  simulator.schedule_keyed_at(at, ~std::uint64_t{0}, 99);
  simulator.schedule_at(SimTime::millis(1), [&] {
    simulator.schedule_keyed_at(at, 10, 10);
  });
  simulator.schedule_keyed_at(at, 20, 20);
  simulator.schedule_timer_at(at - SimTime::micros(1), &push_arg, &fired, 1);
  EXPECT_EQ(simulator.run(), 6u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 10, 20, 30, 99}));
}

TEST(TimerWheel, KeyedEventAtOrBeforeNowIsRefused) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  // No handler installed yet.
  EXPECT_THROW(simulator.schedule_keyed_at(SimTime::millis(1), 1),
               PreconditionError);
  simulator.set_keyed_handler(&push_keyed_arg, &fired);
  EXPECT_THROW(simulator.set_keyed_handler(&push_keyed_arg, &fired),
               PreconditionError);
  simulator.run_until(SimTime::millis(5));
  EXPECT_THROW(simulator.schedule_keyed_at(SimTime::millis(5), 1),
               PreconditionError);
  EXPECT_THROW(simulator.schedule_keyed_at(SimTime::millis(4), 1),
               PreconditionError);
  // Nor may an event add a keyed event to the instant it is firing in.
  bool refused = false;
  simulator.schedule_at(SimTime::millis(7), [&] {
    try {
      simulator.schedule_keyed_at(simulator.now(), 1);
    } catch (const PreconditionError&) {
      refused = true;
    }
  });
  simulator.run();
  EXPECT_TRUE(refused);
  EXPECT_TRUE(fired.empty());
}

TEST(TimerWheel, KeyedOrderHoldsAcrossOverflowHorizon) {
  // Past the 2^36 us wheel horizon plain timers park in the overflow heap
  // and migrate later; keyed events at the same instant still go first,
  // and run_until stops short of them like it does of wheel events.
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  simulator.set_keyed_handler(&push_keyed_arg, &fired);
  const auto far = SimTime::micros((std::int64_t{1} << 37) + 5);
  simulator.schedule_timer_at(far, &push_arg, &fired, 1);
  simulator.schedule_keyed_at(far, 9, 9);
  simulator.schedule_keyed_at(far, 4, 4);
  simulator.schedule_timer_at(far, &push_arg, &fired, 3);
  std::int64_t next_us = 0;
  ASSERT_TRUE(simulator.peek_next_event(next_us));
  EXPECT_EQ(next_us, far.as_micros());
  EXPECT_EQ(simulator.run_until(far - SimTime::micros(1)), 0u);
  EXPECT_EQ(simulator.pending(), 4u);
  EXPECT_EQ(simulator.run_until(far), 4u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{4, 9, 1, 3}));
  EXPECT_EQ(simulator.now(), far);
}

TEST(TimerWheel, ClearMakesHandlesStale) {
  Simulator simulator;
  std::vector<std::uint64_t> fired;
  const auto handle =
      simulator.schedule_timer(SimTime::millis(5), &push_arg, &fired, 1);
  simulator.clear();
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_FALSE(simulator.timer_pending(handle));
  EXPECT_FALSE(simulator.cancel(handle));
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_TRUE(fired.empty());
}

// Counts copies of the callable a schedule() action is wrapped in.  The
// old priority_queue kernel had to const_cast-move out of top(); this
// pins down that firing an action *moves* the stored callable instead of
// copying it (one copy is allowed when the lambda is first materialized
// into the std::function passed to schedule).
struct CopyCounter {
  std::shared_ptr<int> copies = std::make_shared<int>(0);
  std::shared_ptr<int> runs = std::make_shared<int>(0);
  CopyCounter() = default;
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const { ++*runs; }
};

TEST(TimerWheel, FiringMovesActionsInsteadOfCopying) {
  Simulator simulator;
  CopyCounter counter;
  const auto runs = counter.runs;
  const auto copies = counter.copies;
  Simulator::Action action = std::move(counter);  // one move, no copy
  const int copies_before_schedule = *copies;
  simulator.schedule(SimTime::millis(1), std::move(action));
  const int copies_after_schedule = *copies;
  // Moving the action into the queue must not copy the callable.
  EXPECT_EQ(copies_after_schedule, copies_before_schedule);
  simulator.run();
  EXPECT_EQ(*runs, 1);
  // Firing must not copy it either.
  EXPECT_EQ(*copies, copies_after_schedule);
}

TEST(TimerWheel, GoldenEqualityAgainstReferencePriorityModel) {
  // Randomized order check: many events with clustered timestamps (lots
  // of exact ties), some scheduled from inside callbacks, some cancelled.
  // The firing order must match a reference model sorted by (when, seq)
  // — the exact contract the old binary-heap kernel implemented.
  util::Rng rng(0xC0FFEE);
  Simulator simulator;

  struct Expected {
    std::int64_t when_us;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::vector<Expected> expected;
  std::vector<std::uint64_t> fired;
  // Mirrors the simulator's internal sequence counter: every schedule
  // call below — including ones made from inside firing events — is
  // paired with exactly one seq++ at the same moment, so the reference
  // model's (when, seq) keys are exactly the kernel's.
  std::uint64_t seq = 0;
  std::uint64_t next_id = 0;

  auto record_and_schedule = [&](std::int64_t when_us) {
    const auto id = next_id++;
    expected.push_back(Expected{when_us, seq++, id});
    return simulator.schedule_at(SimTime::micros(when_us),
                                 [&fired, id] { fired.push_back(id); });
  };

  for (int i = 0; i < 400; ++i) {
    // Cluster on multiples of 50us so same-instant ties are common; spray
    // a few far out so upper wheel levels, cascades, and the overflow
    // heap all participate.
    std::int64_t when = 50 * static_cast<std::int64_t>(rng.uniform_index(40));
    if (i % 17 == 0) when += 1 << 20;
    if (i % 41 == 0) when += 1LL << 37;  // beyond the wheel horizon
    const auto handle = record_and_schedule(when);
    if (i % 23 == 0) {
      // Cancellation: drop the event from both queue and model (cancel
      // consumes no sequence number).
      ASSERT_TRUE(simulator.cancel(handle));
      expected.pop_back();
      --next_id;
    }
    if (i % 13 == 0) {
      // Nested scheduling: a wrapper event that, when it fires, records
      // and schedules one more event — exercising the fire-time sequence
      // assignment and mid-drain same-instant appends.
      const std::int64_t base = when;
      const std::int64_t extra =
          base + 50 * static_cast<std::int64_t>(rng.uniform_index(20));
      ++seq;  // the wrapper's own schedule call, made just below
      simulator.schedule_at(SimTime::micros(base), [&, extra] {
        record_and_schedule(extra);
      });
    }
  }

  simulator.run();

  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     if (a.when_us != b.when_us) return a.when_us < b.when_us;
                     return a.seq < b.seq;
                   });
  std::vector<std::uint64_t> want;
  want.reserve(expected.size());
  for (const auto& e : expected) want.push_back(e.id);
  EXPECT_EQ(fired, want);
}

}  // namespace
}  // namespace groupcast::sim
