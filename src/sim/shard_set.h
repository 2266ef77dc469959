// Conservative-lookahead parallel discrete-event execution.
//
// A ShardSet runs N independent timer wheels (one sim::Simulator per
// shard) and advances them in lockstep epochs.  The epoch rule is the
// classic conservative bound: if every cross-shard interaction takes at
// least `lookahead_us` of simulated time to arrive, all shards can run an
// epoch of that width concurrently without ever receiving a message
// timestamped in their past.  Cross-shard traffic is the client's job
// (core::Transport): sends during an epoch are parked in per-(src, dst)
// mailboxes and, at the epoch barrier, scheduled on the destination
// shard's wheel as keyed events (Simulator::schedule_keyed_at).  The key
// fixes their order within an instant, so the execution is byte-identical
// at every shard count (see docs/PERFORMANCE.md, "Sharded execution &
// memory budget", for the determinism contract).
//
// Epochs are not fixed-width: at each barrier the leader computes the
// global minimum pending event time m over every shard's wheel and sets
// the next epoch target to min(deadline, m + lookahead - 1) — empty
// stretches are skipped in one hop, dense stretches advance one lookahead
// window at a time.  Any message sent inside the epoch is timestamped
// >= m, so it arrives strictly after the target and is safe to merge at
// the next barrier.
//
// Thread model: with N >= 2, worker i owns shard i's Simulator and all
// node state hashed to it; the constructing thread ("main") may touch any
// shard only while the workers are parked between run_until calls (the
// command handoff is a mutex + condvar, so parking gives full
// happens-before in both directions).  Barriers inside a run are
// busy-wait sense barriers: at the event densities the recovery bench
// produces (a few events per lookahead window per shard) a futex wake
// per epoch would cost more than the epoch's work.  A one-shard set has
// no cross-shard traffic and so no epochs: it starts no worker and runs
// each run_until as one span on the calling thread, whose thread-local
// tracing and counters therefore see every event.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace groupcast::sim {

class ShardSet {
 public:
  /// The cross-shard message plane (implemented by core::Transport).
  class Client {
   public:
    virtual ~Client() = default;
    /// Schedules every message parked for `shard` on its wheel.  Called
    /// on the shard's worker at each epoch barrier, after all sends of the
    /// previous epoch are visible and before the next epoch target is
    /// chosen.
    virtual void merge_inbound(std::size_t shard) = 0;
  };

  /// `lookahead_us` must be a strictly positive lower bound on the
  /// simulated latency of every cross-shard interaction.
  ShardSet(std::size_t num_shards, std::int64_t lookahead_us);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::int64_t lookahead_us() const { return lookahead_us_; }
  Simulator& shard(std::size_t i) { return *shards_[i].simulator; }

  /// Installs the message plane.  Must be set before the first run.
  void set_client(Client* client) { client_ = client; }

  /// Runs `fn(shard)` once per shard, each on the thread that runs that
  /// shard (the calling thread for a one-shard set), and returns when all
  /// have finished.  Used to install per-shard thread-local
  /// instrumentation (scoped counter/histogram registries) whose guards
  /// must live on the owning thread.
  void exec_on_shards(const std::function<void(std::size_t)>& fn);

  /// Advances every shard to `deadline` (inclusive, like
  /// Simulator::run_until) in conservative-lookahead epochs.  Returns
  /// with all workers parked and every shard's clock at `deadline`.
  void run_until(SimTime deadline);

  /// The global clock: every shard's now() after the last run_until.
  SimTime now() const { return now_; }

  /// Total events fired across all shards.  Invariant across shard
  /// counts.
  std::uint64_t events_fired() const;
  /// Per-shard event totals, for the shard-imbalance bench columns.
  std::vector<std::uint64_t> events_per_shard() const;
  /// The deepest any one shard's event queue has been.
  std::size_t queue_high_water() const;

  std::size_t memory_bytes() const;

 private:
  enum class Command : std::uint8_t { kNone, kRun, kExec, kStop };

  /// Sense-reversing busy-wait barrier; the last arriver runs
  /// `completion` before releasing the others.
  class SpinBarrier {
   public:
    explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {}

    template <typename F>
    void arrive_and_wait(F&& completion) {
      const std::uint64_t gen = generation_.load(std::memory_order_acquire);
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
        arrived_.store(0, std::memory_order_relaxed);
        completion();
        generation_.store(gen + 1, std::memory_order_release);
      } else {
        // Bounded spin, then yield: when the workers outnumber the
        // machine's cores (CI runners, containers), a pure pause loop
        // burns whole scheduler quanta per barrier and the run crawls;
        // yielding lets the straggler shard onto the core immediately.
        std::uint32_t spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
          if (++spins < kSpinLimit) {
            pause();
          } else {
            std::this_thread::yield();
          }
        }
      }
    }
    void arrive_and_wait() {
      arrive_and_wait([] {});
    }

   private:
    /// Spin budget before falling back to yield (~a few hundred ns).
    static constexpr std::uint32_t kSpinLimit = 256;

    static void pause() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }

    const std::uint32_t parties_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
  };

  struct alignas(64) Shard {
    std::unique_ptr<Simulator> simulator;
    /// This shard's earliest pending instant, or -1; published before
    /// the target barrier, read by the leader.
    std::int64_t next_us = -1;
  };

  void worker_main(std::size_t i);
  void run_worker(std::size_t i);
  void broadcast(Command cmd);

  std::vector<Shard> shards_;
  std::vector<std::thread> threads_;
  Client* client_ = nullptr;
  const std::int64_t lookahead_us_;
  SimTime now_;

  // Command handoff (main <-> parked workers).
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t cmd_seq_ = 0;
  Command cmd_ = Command::kNone;
  std::int64_t deadline_us_ = 0;
  const std::function<void(std::size_t)>* exec_fn_ = nullptr;
  std::size_t done_count_ = 0;

  // Epoch state, written only by the barrier leader inside the barrier's
  // completion step (release/acquire on the barrier generation orders it).
  SpinBarrier barrier_;
  std::int64_t target_us_ = 0;
  bool run_done_ = false;
};

}  // namespace groupcast::sim
