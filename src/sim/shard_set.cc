#include "sim/shard_set.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace groupcast::sim {

ShardSet::ShardSet(std::size_t num_shards, std::int64_t lookahead_us)
    : shards_(num_shards),
      lookahead_us_(lookahead_us),
      barrier_(static_cast<std::uint32_t>(num_shards)) {
  GC_REQUIRE(num_shards >= 1);
  GC_REQUIRE_MSG(lookahead_us > 0, "lookahead must be positive");
  for (auto& shard : shards_) shard.simulator = std::make_unique<Simulator>();
  if (num_shards == 1) return;  // runs on the calling thread
  threads_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ShardSet::~ShardSet() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cmd_ = Command::kStop;
    ++cmd_seq_;
  }
  cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ShardSet::broadcast(Command cmd) {
  std::unique_lock<std::mutex> lock(mu_);
  cmd_ = cmd;
  done_count_ = 0;
  ++cmd_seq_;
  cv_.notify_all();
  done_cv_.wait(lock, [this] { return done_count_ == shards_.size(); });
}

void ShardSet::exec_on_shards(const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    fn(0);
    return;
  }
  exec_fn_ = &fn;
  broadcast(Command::kExec);
  exec_fn_ = nullptr;
}

void ShardSet::run_until(SimTime deadline) {
  GC_REQUIRE(client_ != nullptr);
  GC_REQUIRE(deadline >= now_);
  if (threads_.empty()) {
    // One shard: no cross-shard traffic, so the whole span is one epoch.
    client_->merge_inbound(0);
    shards_[0].simulator->run_until(deadline);
    ++epochs_;
  } else {
    deadline_us_ = deadline.as_micros();
    broadcast(Command::kRun);
  }
  now_ = deadline;
}

std::uint64_t ShardSet::events_fired() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.simulator->events_fired();
  }
  return total;
}

std::vector<std::uint64_t> ShardSet::events_per_shard() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard.simulator->events_fired());
  }
  return out;
}

std::size_t ShardSet::queue_high_water() const {
  std::size_t deepest = 0;
  for (const auto& shard : shards_) {
    deepest = std::max(deepest, shard.simulator->queue_high_water());
  }
  return deepest;
}

std::size_t ShardSet::memory_bytes() const {
  std::size_t total = sizeof(*this) + shards_.capacity() * sizeof(Shard) +
                      threads_.capacity() * sizeof(std::thread);
  for (const auto& shard : shards_) total += shard.simulator->memory_bytes();
  return total;
}

void ShardSet::worker_main(std::size_t i) {
  std::uint64_t seen = 0;
  for (;;) {
    Command cmd;
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return cmd_seq_ != seen; });
      seen = cmd_seq_;
      cmd = cmd_;
      fn = exec_fn_;
    }
    if (cmd == Command::kStop) return;
    if (cmd == Command::kExec) {
      (*fn)(i);
    } else {
      run_worker(i);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_count_ == shards_.size()) done_cv_.notify_one();
    }
  }
}

void ShardSet::run_worker(std::size_t i) {
  Shard& self = shards_[i];
  const std::int64_t deadline = deadline_us_;
  for (;;) {
    // Barrier 1: every send of the previous epoch (and, on the first
    // iteration, every send the main thread posted while we were parked)
    // is visible — safe to merge.
    barrier_.arrive_and_wait();
    client_->merge_inbound(i);
    std::int64_t wheel_us = 0;
    self.next_us = self.simulator->peek_next_event(wheel_us) ? wheel_us : -1;
    // Barrier 2: every shard published its earliest pending instant; the
    // leader picks the epoch target.  Any event fired in the epoch is at
    // time >= m, so everything it sends arrives at >= m + lookahead —
    // strictly after the target.  With nothing pending before the
    // deadline the whole remaining span is one epoch.
    barrier_.arrive_and_wait([this, deadline] {
      std::int64_t m = -1;
      for (const auto& shard : shards_) {
        if (shard.next_us >= 0 && (m < 0 || shard.next_us < m)) {
          m = shard.next_us;
        }
      }
      ++epochs_;
      // Compared as deadline - m so an unbounded lookahead cannot
      // overflow m + lookahead.
      if (m < 0 || m > deadline || deadline - m < lookahead_us_) {
        target_us_ = deadline;
        run_done_ = true;
      } else {
        target_us_ = m + lookahead_us_ - 1;
        run_done_ = false;
      }
    });
    self.simulator->run_until(SimTime::micros(target_us_));
    if (run_done_) return;
  }
}

}  // namespace groupcast::sim
