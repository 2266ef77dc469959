// Request–response reliability for control-plane exchanges.
//
// The Transport is fire-and-forget; this wrapper gives a node's control
// messages (JOIN, ripple search, advertise refresh) at-least-once attempt
// semantics: each exchange re-fires its send callback on a per-attempt
// timeout with capped exponential backoff and deterministic RNG-stream
// jitter, until a response settles it or the attempt budget runs out and
// the give-up callback fires.  The exchange does not know message types —
// the owner supplies a send closure per attempt and settles the token when
// whatever it considers a response arrives — so one mechanism covers every
// request–response pattern in the protocol.
//
// Determinism: the jitter stream is split off the owning node's RNG at
// construction, so a run's retry schedule is a pure function of the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "overlay/population.h"
#include "sim/simulator.h"

namespace groupcast::core {

struct RetryPolicy {
  /// Timeout of the first attempt.
  sim::SimTime base_timeout = sim::SimTime::seconds(1.0);
  /// Cap on the backed-off timeout.
  sim::SimTime max_timeout = sim::SimTime::seconds(8.0);
};

/// Multiplier applied to the timeout per attempt (capped by max_timeout).
inline constexpr double kRetryBackoff = 2.0;
/// Each timeout is stretched by a uniform factor in [1, 1 + kRetryJitter).
inline constexpr double kRetryJitter = 0.1;
/// Total attempts (the first send included) before giving up.
inline constexpr std::size_t kMaxAttempts = 3;

class ReliableExchange {
 public:
  using Token = std::uint64_t;
  static constexpr Token kNoToken = 0;

  /// Transmits attempt `attempt` (0-based) of the exchange.
  using SendFn = std::function<void(std::size_t attempt)>;
  /// Fired once when every attempt has timed out unanswered.
  using GiveUpFn = std::function<void()>;

  /// `owner` attributes the retry/give-up counters; `rng` is split once
  /// for the jitter stream.
  ReliableExchange(sim::Simulator& simulator, overlay::PeerId owner,
                   RetryPolicy policy, util::Rng& rng);

  /// Starts an exchange: fires attempt 0 immediately and arms its timeout.
  Token begin(SendFn send, GiveUpFn give_up);

  /// A response arrived; stops the retry clock.  Returns false if the
  /// token was not pending (already settled, cancelled, or given up).
  bool settle(Token token);

  /// Abandons an exchange without invoking its give-up callback.
  void cancel(Token token);

  /// Abandons every pending exchange (node shutdown).
  void cancel_all();

  bool pending(Token token) const { return entries_.count(token) != 0; }
  std::size_t in_flight() const { return entries_.size(); }

  /// Backoff before jitter:
  /// min(base * kRetryBackoff^attempt, max_timeout).
  sim::SimTime backoff_timeout(std::size_t attempt) const;

 private:
  struct Entry {
    SendFn send;
    GiveUpFn give_up;
    std::size_t attempt = 0;
  };

  void fire(Token token);
  void arm_timeout(Token token, std::size_t attempt);
  void on_timeout(Token token, std::size_t attempt);
  /// Timeout dispatch through the simulator's fixed-signature timer path
  /// (no per-attempt closure allocation): the argument packs the attempt
  /// number into the top byte of the token, which caps tokens at 2^56 —
  /// far above any realistic exchange count.
  static void timeout_thunk(void* context, std::uint64_t packed);

  sim::Simulator* simulator_;
  overlay::PeerId owner_;
  RetryPolicy policy_;
  util::Rng rng_;
  Token next_token_ = 1;
  std::unordered_map<Token, Entry> entries_;
};

}  // namespace groupcast::core
