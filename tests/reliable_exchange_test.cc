// Tests for the control-plane retry machinery: per-attempt timeouts,
// capped exponential backoff, jitter bounds, settling, cancellation, and
// deterministic schedules.
#include <gtest/gtest.h>

#include <vector>

#include "core/reliable_exchange.h"
#include "util/require.h"

namespace groupcast::core {
namespace {

// The exchange reads its policy by reference, so it must outlive it.
const RetryPolicy kDefaultPolicy{};

TEST(ReliableExchange, BackoffDoublesAndCaps) {
  sim::Simulator simulator;
  util::Rng rng(1);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  EXPECT_EQ(exchange.backoff_timeout(0), sim::SimTime::seconds(1.0));
  EXPECT_EQ(exchange.backoff_timeout(1), sim::SimTime::seconds(2.0));
  EXPECT_EQ(exchange.backoff_timeout(2), sim::SimTime::seconds(4.0));
  EXPECT_EQ(exchange.backoff_timeout(3), sim::SimTime::seconds(8.0));
  // Capped at max_timeout from here on.
  EXPECT_EQ(exchange.backoff_timeout(4), sim::SimTime::seconds(8.0));
  EXPECT_EQ(exchange.backoff_timeout(20), sim::SimTime::seconds(8.0));
}

TEST(ReliableExchange, BaseAndCapShapeTheBackoff) {
  // The two settable fields: base_timeout is the first wait and
  // max_timeout caps the doubling, as the lease replica sets them.
  sim::Simulator simulator;
  util::Rng rng(1);
  RetryPolicy policy;
  policy.base_timeout = sim::SimTime::millis(500);
  policy.max_timeout = sim::SimTime::millis(2000);
  ReliableExchange exchange(simulator, 0, policy, rng);
  EXPECT_EQ(exchange.backoff_timeout(0), sim::SimTime::millis(500));
  EXPECT_EQ(exchange.backoff_timeout(1), sim::SimTime::millis(1000));
  EXPECT_EQ(exchange.backoff_timeout(2), sim::SimTime::millis(2000));
  EXPECT_EQ(exchange.backoff_timeout(3), sim::SimTime::millis(2000));
}

/// True if `gap` lies in the jitter band [base, base * (1 + kRetryJitter)).
bool in_jitter_band(sim::SimTime gap, sim::SimTime base) {
  return gap >= base &&
         static_cast<double>(gap.as_micros()) <
             static_cast<double>(base.as_micros()) * (1.0 + kRetryJitter);
}

TEST(ReliableExchange, RetriesOnScheduleThenGivesUp) {
  sim::Simulator simulator;
  util::Rng rng(2);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  std::vector<std::pair<std::size_t, sim::SimTime>> sends;
  bool gave_up = false;
  sim::SimTime give_up_at;
  exchange.begin(
      [&](std::size_t attempt) {
        sends.emplace_back(attempt, simulator.now());
      },
      [&] {
        gave_up = true;
        give_up_at = simulator.now();
      });
  simulator.run();
  // Attempt 0 immediately, retries ~1s and ~2s later, give-up ~4s after
  // the last: every wait is the backoff stretched inside the jitter band.
  ASSERT_EQ(sends.size(), kMaxAttempts);
  EXPECT_EQ(sends[0].first, 0u);
  EXPECT_EQ(sends[0].second, sim::SimTime::zero());
  EXPECT_EQ(sends[1].first, 1u);
  EXPECT_TRUE(in_jitter_band(sends[1].second - sends[0].second,
                             sim::SimTime::seconds(1.0)));
  EXPECT_EQ(sends[2].first, 2u);
  EXPECT_TRUE(in_jitter_band(sends[2].second - sends[1].second,
                             sim::SimTime::seconds(2.0)));
  EXPECT_TRUE(gave_up);
  EXPECT_TRUE(in_jitter_band(give_up_at - sends[2].second,
                             sim::SimTime::seconds(4.0)));
  EXPECT_EQ(exchange.in_flight(), 0u);
}

TEST(ReliableExchange, SettleStopsTheClock) {
  sim::Simulator simulator;
  util::Rng rng(3);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  std::size_t sends = 0;
  bool gave_up = false;
  const auto token =
      exchange.begin([&](std::size_t) { ++sends; }, [&] { gave_up = true; });
  EXPECT_TRUE(exchange.pending(token));
  EXPECT_TRUE(exchange.settle(token));
  EXPECT_FALSE(exchange.pending(token));
  // A second settle (duplicate response) is a no-op.
  EXPECT_FALSE(exchange.settle(token));
  simulator.run();
  EXPECT_EQ(sends, 1u);
  EXPECT_FALSE(gave_up);
}

TEST(ReliableExchange, CancelSuppressesGiveUp) {
  sim::Simulator simulator;
  util::Rng rng(4);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  bool gave_up = false;
  const auto token =
      exchange.begin([](std::size_t) {}, [&] { gave_up = true; });
  exchange.cancel(token);
  simulator.run();
  EXPECT_FALSE(gave_up);
  EXPECT_EQ(exchange.in_flight(), 0u);
}

TEST(ReliableExchange, CancelAllOnShutdown) {
  sim::Simulator simulator;
  util::Rng rng(5);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  bool gave_up = false;
  exchange.begin([](std::size_t) {}, [&] { gave_up = true; });
  exchange.begin([](std::size_t) {}, [&] { gave_up = true; });
  EXPECT_EQ(exchange.in_flight(), 2u);
  exchange.cancel_all();
  EXPECT_EQ(exchange.in_flight(), 0u);
  simulator.run();
  EXPECT_FALSE(gave_up);
}

TEST(ReliableExchange, JitterStretchesWithinBounds) {
  sim::Simulator simulator;
  util::Rng rng(6);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  std::vector<sim::SimTime> at;
  exchange.begin([&](std::size_t) { at.push_back(simulator.now()); },
                 [&] { at.push_back(simulator.now()); });
  simulator.run();
  ASSERT_EQ(at.size(), kMaxAttempts + 1);  // every send, then the give-up
  bool stretched = false;
  for (std::size_t k = 0; k + 1 < at.size(); ++k) {
    const auto gap = at[k + 1] - at[k];
    const auto base = exchange.backoff_timeout(k);
    EXPECT_TRUE(in_jitter_band(gap, base)) << "attempt " << k;
    stretched = stretched || gap > base;
  }
  EXPECT_TRUE(stretched);  // the jitter draw is really applied
}

TEST(ReliableExchange, ScheduleIsDeterministicPerSeed) {
  auto schedule = [](std::uint64_t seed) {
    sim::Simulator simulator;
    util::Rng rng(seed);
    ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
    std::vector<std::int64_t> at;
    exchange.begin(
        [&](std::size_t) { at.push_back(simulator.now().as_micros()); },
        [] {});
    simulator.run();
    return at;
  };
  EXPECT_EQ(schedule(42), schedule(42));
  EXPECT_NE(schedule(42), schedule(43));
}

TEST(ReliableExchange, IndependentExchangesDoNotInterfere) {
  sim::Simulator simulator;
  util::Rng rng(7);
  ReliableExchange exchange(simulator, 0, kDefaultPolicy, rng);
  std::size_t sends_a = 0, sends_b = 0;
  bool gave_up_b = false;
  const auto a = exchange.begin([&](std::size_t) { ++sends_a; }, [] {});
  exchange.begin([&](std::size_t) { ++sends_b; },
                 [&] { gave_up_b = true; });
  exchange.settle(a);
  simulator.run();
  EXPECT_EQ(sends_a, 1u);
  EXPECT_EQ(sends_b, kMaxAttempts);
  EXPECT_TRUE(gave_up_b);
}

TEST(ReliableExchange, RejectsNonsensePolicies) {
  sim::Simulator simulator;
  util::Rng rng(8);
  auto make = [&](RetryPolicy policy) {
    ReliableExchange exchange(simulator, 0, policy, rng);
  };
  RetryPolicy policy;
  policy.base_timeout = sim::SimTime::zero();
  EXPECT_THROW(make(policy), PreconditionError);
  policy = RetryPolicy{};
  policy.max_timeout = sim::SimTime::millis(1.0);
  EXPECT_THROW(make(policy), PreconditionError);
}

}  // namespace
}  // namespace groupcast::core
