#include "core/reliable_exchange.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

ReliableExchange::ReliableExchange(sim::Simulator& simulator,
                                   overlay::PeerId owner,
                                   const RetryPolicy& policy, util::Rng& rng)
    : simulator_(&simulator),
      owner_(owner),
      policy_(&policy),
      rng_(rng.split()) {
  GC_REQUIRE(policy.base_timeout > sim::SimTime::zero());
  GC_REQUIRE(policy.max_timeout >= policy.base_timeout);
}

sim::SimTime ReliableExchange::backoff_timeout(std::size_t attempt) const {
  const double scaled =
      static_cast<double>(policy_->base_timeout.as_micros()) *
      std::pow(kRetryBackoff, static_cast<double>(attempt));
  const double capped = std::min(
      scaled, static_cast<double>(policy_->max_timeout.as_micros()));
  return sim::SimTime::micros(static_cast<std::int64_t>(capped));
}

ReliableExchange::Token ReliableExchange::begin(SendFn send,
                                                GiveUpFn give_up) {
  GC_REQUIRE(send != nullptr);
  const Token token = next_token_++;
  entries_.emplace(token, Entry{std::move(send), std::move(give_up), 0});
  fire(token);
  return token;
}

void ReliableExchange::fire(Token token) {
  const auto it = entries_.find(token);
  if (it == entries_.end()) return;
  const auto attempt = it->second.attempt;
  // Arm before sending: the send callback may settle the exchange
  // synchronously (e.g. a loop-free in-process shortcut).
  arm_timeout(token, attempt);
  // Copy out so a settle()/cancel() from inside the callback cannot
  // destroy the function object mid-call.
  const SendFn send = it->second.send;
  send(attempt);
}

void ReliableExchange::arm_timeout(Token token, std::size_t attempt) {
  // One jitter draw per armed attempt keeps the RNG stream aligned with
  // the retry schedule regardless of when responses arrive.
  const double stretch = 1.0 + kRetryJitter * rng_.uniform();
  const auto timeout = sim::SimTime::micros(static_cast<std::int64_t>(
      static_cast<double>(backoff_timeout(attempt).as_micros()) * stretch));
  GC_REQUIRE(token < (Token{1} << 56) && attempt < 256);
  simulator_->schedule_timer(timeout, &ReliableExchange::timeout_thunk, this,
                             token | (static_cast<Token>(attempt) << 56));
}

void ReliableExchange::timeout_thunk(void* context, std::uint64_t packed) {
  static_cast<ReliableExchange*>(context)->on_timeout(
      packed & ((Token{1} << 56) - 1),
      static_cast<std::size_t>(packed >> 56));
}

void ReliableExchange::on_timeout(Token token, std::size_t attempt) {
  const auto it = entries_.find(token);
  if (it == entries_.end()) return;       // settled or cancelled
  if (it->second.attempt != attempt) return;  // stale timer
  if (attempt + 1 >= kMaxAttempts) {
    const GiveUpFn give_up = std::move(it->second.give_up);
    entries_.erase(it);
    trace::counters().incr(owner_, trace::CounterId::kControlGiveups);
    if (give_up) give_up();
    return;
  }
  it->second.attempt = attempt + 1;
  trace::counters().incr(owner_, trace::CounterId::kControlRetries);
  fire(token);
}

bool ReliableExchange::settle(Token token) {
  return entries_.erase(token) != 0;
}

void ReliableExchange::cancel(Token token) { entries_.erase(token); }

void ReliableExchange::cancel_all() { entries_.clear(); }

}  // namespace groupcast::core
