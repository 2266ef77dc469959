#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/require.h"

namespace groupcast::sim {

namespace {

/// Heap comparator: pops overflow entries in ascending (when, seq) order,
/// keyed events in ascending (when, key, arg).
struct Later {
  template <typename Ref>
  bool operator()(const Ref& a, const Ref& b) const {
    return b < a;
  }
};

}  // namespace

Simulator::Simulator() {
  for (auto& level : heads_) {
    for (auto& head : level) head = kNil;
  }
}

int Simulator::level_for(std::int64_t when_us) const {
  const std::uint64_t diff = static_cast<std::uint64_t>(when_us) ^
                             static_cast<std::uint64_t>(cursor_us_);
  if (diff == 0) return 0;
  const int msb = 63 - std::countl_zero(diff);
  return msb / kSlotBits;
}

std::uint32_t Simulator::allocate_node() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = nodes_[index].next;
    return index;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulator::free_node(std::uint32_t index) {
  EventNode& node = nodes_[index];
  node.action = nullptr;  // release captured state promptly
  node.fn = nullptr;
  node.context = nullptr;
  node.cancelled = false;
  node.state = NodeState::kFree;
  ++node.generation;  // stale handles to this slot stop matching
  node.next = free_head_;
  free_head_ = index;
}

void Simulator::place(std::uint32_t index) {
  EventNode& node = nodes_[index];
  const std::int64_t when_us = node.when.as_micros();
  if (draining_ && when_us == cursor_us_) {
    // Scheduled for the instant currently firing: join the tail of the
    // batch.  seq is monotone, so the batch stays sorted.
    node.state = NodeState::kDrain;
    drain_.push_back(index);
    return;
  }
  const int level = level_for(when_us);
  if (level >= kLevels) {
    node.state = NodeState::kOverflow;
    overflow_.push_back(OverflowRef{when_us, node.seq, index});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    return;
  }
  const int slot =
      static_cast<int>((when_us >> (kSlotBits * level)) & (kSlots - 1));
  node.state = NodeState::kWheel;
  node.level = static_cast<std::uint8_t>(level);
  node.wheel_slot = static_cast<std::uint8_t>(slot);
  const std::uint64_t bit = std::uint64_t{1} << slot;
  // An empty slot starts its minimum here.  A stale minimum is a lower
  // bound of the chain's, so an earlier event is the exact new one.
  if (heads_[level][slot] == kNil || when_us < min_us_[level][slot]) {
    min_us_[level][slot] = when_us;
    stale_min_[level] &= ~bit;
  }
  node.next = heads_[level][slot];
  heads_[level][slot] = index;
  occupied_[level] |= bit;
}

void Simulator::unlink_from_wheel(EventNode& node, std::uint32_t index) {
  const int level = node.level;
  const int slot = node.wheel_slot;
  std::uint32_t* link = &heads_[level][slot];
  while (*link != index) link = &nodes_[*link].next;
  *link = node.next;
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if (heads_[level][slot] == kNil) {
    occupied_[level] &= ~bit;
  } else if (node.when.as_micros() == min_us_[level][slot]) {
    stale_min_[level] |= bit;
  }
}

std::int64_t Simulator::slot_min(int level, int slot) {
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((stale_min_[level] & bit) != 0) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::uint32_t index = heads_[level][slot]; index != kNil;
         index = nodes_[index].next) {
      best = std::min(best, nodes_[index].when.as_micros());
    }
    min_us_[level][slot] = best;
    stale_min_[level] &= ~bit;
  }
  return min_us_[level][slot];
}

TimerHandle Simulator::enqueue(SimTime when, TimerFn fn, void* context,
                               std::uint64_t arg, Action action) {
  GC_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
  const std::uint32_t index = allocate_node();
  EventNode& node = nodes_[index];
  node.when = when;
  node.seq = next_seq_++;
  node.fn = fn;
  node.context = context;
  node.arg = arg;
  node.action = std::move(action);
  place(index);
  ++live_;
  // Bare compare + store on the schedule path; the kEventLoopLag trace
  // event for an advanced mark is emitted from fire_batch(), where the
  // tracer lookup is already hoisted.
  if (live_ > queue_high_water_) queue_high_water_ = live_;
  return TimerHandle{index, node.generation};
}

TimerHandle Simulator::schedule(SimTime delay, Action action) {
  GC_REQUIRE_MSG(delay >= SimTime::zero(), "cannot schedule into the past");
  GC_REQUIRE(action != nullptr);
  return enqueue(now_ + delay, nullptr, nullptr, 0, std::move(action));
}

TimerHandle Simulator::schedule_at(SimTime when, Action action) {
  GC_REQUIRE(action != nullptr);
  return enqueue(when, nullptr, nullptr, 0, std::move(action));
}

TimerHandle Simulator::schedule_timer(SimTime delay, TimerFn fn, void* context,
                                      std::uint64_t arg) {
  GC_REQUIRE_MSG(delay >= SimTime::zero(), "cannot schedule into the past");
  GC_REQUIRE(fn != nullptr);
  return enqueue(now_ + delay, fn, context, arg, nullptr);
}

TimerHandle Simulator::schedule_timer_at(SimTime when, TimerFn fn,
                                         void* context, std::uint64_t arg) {
  GC_REQUIRE(fn != nullptr);
  return enqueue(when, fn, context, arg, nullptr);
}

void Simulator::set_keyed_handler(KeyedFn fn, void* context) {
  GC_REQUIRE_MSG(fn == nullptr || keyed_fn_ == nullptr,
                 "a keyed handler is already installed");
  keyed_fn_ = fn;
  keyed_context_ = context;
}

void Simulator::schedule_keyed_at(SimTime when, std::uint64_t key,
                                  std::uint64_t arg) {
  GC_REQUIRE_MSG(when > now_ && keyed_fn_ != nullptr,
                 "a keyed event needs a handler and must lie after now()");
  keyed_.push_back(KeyedEvent{when.as_micros(), key, arg});
  std::push_heap(keyed_.begin(), keyed_.end(), Later{});
  if (++live_ > queue_high_water_) queue_high_water_ = live_;
}

bool Simulator::timer_pending(TimerHandle handle) const {
  if (!handle.assigned() || handle.slot >= nodes_.size()) return false;
  const EventNode& node = nodes_[handle.slot];
  return node.generation == handle.generation &&
         node.state != NodeState::kFree && !node.cancelled;
}

bool Simulator::cancel(TimerHandle handle) {
  if (!timer_pending(handle)) return false;
  const std::uint32_t index = handle.slot;
  EventNode& node = nodes_[index];
  --live_;
  switch (node.state) {
    case NodeState::kWheel:
      // Eager removal keeps the wheel free of dead nodes: occupancy
      // bitmaps stay exact and cascades never shuffle corpses around.
      unlink_from_wheel(node, index);
      free_node(index);
      break;
    case NodeState::kOverflow:
    case NodeState::kDrain:
      // Heap entries / the in-flight batch still reference the node by
      // index; mark it and let that sweep reclaim it.
      node.cancelled = true;
      break;
    case NodeState::kFree:
      break;  // unreachable: timer_pending filtered it
  }
  return true;
}

void Simulator::migrate_overflow() {
  while (!overflow_.empty()) {
    const OverflowRef top = overflow_.front();
    const EventNode& node = nodes_[top.node];
    // A cancelled-then-recycled node no longer matches its heap entry;
    // detect that via seq (unique per scheduling) before trusting it.
    const bool stale = node.state != NodeState::kOverflow ||
                       node.seq != top.seq || node.cancelled;
    if (!stale && level_for(top.when_us) >= kLevels) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
    if (stale) {
      if (node.state == NodeState::kOverflow && node.seq == top.seq) {
        free_node(top.node);  // cancelled while parked
      }
      continue;
    }
    place(top.node);
  }
}

bool Simulator::first_occupied(int& level, int& slot) const {
  for (level = 0; level < kLevels; ++level) {
    const int pos =
        static_cast<int>((cursor_us_ >> (kSlotBits * level)) & (kSlots - 1));
    const std::uint64_t mask = occupied_[level] >> pos;
    if (mask == 0) continue;
    slot = pos + std::countr_zero(mask);
    return true;
  }
  return false;
}

std::int64_t Simulator::slot_start(int level, int slot) const {
  const int shift = kSlotBits * level;
  const std::int64_t above = ~((std::int64_t{1} << (shift + kSlotBits)) - 1);
  return (cursor_us_ & above) | (static_cast<std::int64_t>(slot) << shift);
}

bool Simulator::peek_next_event(std::int64_t& when_us) {
  bool found = next_wheel_time(when_us);
  if (!keyed_.empty() && (!found || keyed_.front().when_us < when_us)) {
    when_us = keyed_.front().when_us;
    found = true;
  }
  return found;
}

bool Simulator::next_wheel_time(std::int64_t& when_us) {
  migrate_overflow();
  int level = 0;
  int slot = 0;
  if (!first_occupied(level, slot)) {
    if (overflow_.empty()) return false;
    when_us = overflow_.front().when_us;  // beyond the wheel horizon
    return true;
  }
  // No cross-level comparison is needed: every event in a higher level
  // lies beyond the end of this level's window.
  when_us = slot_min(level, slot);
  return true;
}

bool Simulator::event_due(std::int64_t deadline_us) {
  migrate_overflow();
  int level = 0;
  int slot = 0;
  if (!first_occupied(level, slot)) {
    return !overflow_.empty() && overflow_.front().when_us <= deadline_us;
  }
  // The earliest events lie in [start, end]; only a deadline strictly
  // inside an upper-level slot needs the slot's minimum.
  const std::int64_t start = slot_start(level, slot);
  const std::int64_t end = start + (std::int64_t{1} << (kSlotBits * level)) - 1;
  if (end <= deadline_us) return true;
  if (start > deadline_us) return false;
  return slot_min(level, slot) <= deadline_us;
}

bool Simulator::prepare_batch() {
  for (;;) {
    migrate_overflow();
    int found_level = 0;
    int found_slot = 0;
    if (!first_occupied(found_level, found_slot)) {
      if (overflow_.empty()) return false;
      // Wheel empty: jump the cursor straight to the heap minimum (no
      // queued event constrains it) and let migration pull entries in.
      cursor_us_ = overflow_.front().when_us;
      continue;
    }
    if (found_level == 0) {
      const std::int64_t batch_us = slot_start(0, found_slot);
      cursor_us_ = batch_us;
      drain_.clear();
      drain_pos_ = 0;
      std::uint32_t index = heads_[0][found_slot];
      heads_[0][found_slot] = kNil;
      occupied_[0] &= ~(std::uint64_t{1} << found_slot);
      while (index != kNil) {
        const std::uint32_t next = nodes_[index].next;
        nodes_[index].state = NodeState::kDrain;
        drain_.push_back(index);
        index = next;
      }
      // Restore FIFO scheduling order: the slot chain is LIFO, and nodes
      // that cascaded down from upper levels interleave with direct
      // level-0 inserts.
      std::sort(drain_.begin(), drain_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return nodes_[a].seq < nodes_[b].seq;
                });
      return true;
    }
    // Cascade: advance the cursor to the slot's start and re-bin the
    // chain one or more levels down.
    cursor_us_ = slot_start(found_level, found_slot);
    std::uint32_t index = heads_[found_level][found_slot];
    heads_[found_level][found_slot] = kNil;
    occupied_[found_level] &= ~(std::uint64_t{1} << found_slot);
    while (index != kNil) {
      const std::uint32_t next = nodes_[index].next;
      place(index);
      index = next;
    }
  }
}

std::size_t Simulator::fire_batch(trace::Tracer& tracer, bool tracing) {
  std::size_t fired = 0;
  draining_ = true;
  while (drain_pos_ < drain_.size()) {
    const std::uint32_t index = drain_[drain_pos_++];
    EventNode& node = nodes_[index];
    if (node.state != NodeState::kDrain) continue;  // clear() mid-batch
    if (node.cancelled) {
      free_node(index);
      continue;
    }
    now_ = node.when;
    --live_;
    if (tracing) trace_fire(tracer);
    // Move the callback out before recycling the node: the callback may
    // schedule new events that reuse this very slab slot.
    const TimerFn fn = node.fn;
    void* context = node.context;
    const std::uint64_t arg = node.arg;
    Action action = std::move(node.action);
    free_node(index);
    if (fn != nullptr) {
      fn(context, arg);
    } else {
      action();
    }
    ++events_fired_;
    ++fired;
  }
  draining_ = false;
  drain_.clear();
  drain_pos_ = 0;
  return fired;
}

void Simulator::trace_fire(trace::Tracer& tracer) {
  if (queue_high_water_ > reported_high_water_) {
    reported_high_water_ = queue_high_water_;
    tracer.emit(now_.as_micros(), trace::EventKind::kEventLoopLag,
                trace::kNoNode, trace::kNoNode, queue_high_water_);
  }
  tracer.emit(now_.as_micros(), trace::EventKind::kSimEvent, trace::kNoNode,
              trace::kNoNode, live_);
}

bool Simulator::fire_next(std::int64_t deadline_us, trace::Tracer& tracer,
                          bool tracing, std::size_t& fired) {
  const bool keyed_due =
      !keyed_.empty() && keyed_.front().when_us <= deadline_us;
  // Keyed events go first at their instant: only a wheel event strictly
  // before it fires ahead of them.
  if (keyed_due && !event_due(keyed_.front().when_us - 1)) {
    const std::int64_t instant_us = keyed_.front().when_us;
    now_ = SimTime::micros(instant_us);
    // Handlers only schedule keyed events after now(), so none joins this
    // instant while it fires.
    while (!keyed_.empty() && keyed_.front().when_us == instant_us) {
      std::pop_heap(keyed_.begin(), keyed_.end(), Later{});
      const KeyedEvent event = keyed_.back();
      keyed_.pop_back();
      --live_;
      if (tracing) trace_fire(tracer);
      keyed_fn_(keyed_context_, event.key, event.arg);
      ++events_fired_;
      ++fired;
    }
    return true;
  }
  if (!keyed_due && !event_due(deadline_us)) return false;
  if (!prepare_batch()) return false;
  fired += fire_batch(tracer, tracing);
  return true;
}

std::size_t Simulator::run_to(std::int64_t deadline_us) {
  // Hoisted per-run: installing a sink *during* a run takes effect at the
  // next run() call, which keeps the per-event cost of disabled tracing to
  // one predictable branch.
  auto& tracer = trace::tracer();
  const bool tracing = tracer.enabled();
  std::size_t fired = 0;
  while (live_ > 0 && fire_next(deadline_us, tracer, tracing, fired)) {
  }
  return fired;
}

std::size_t Simulator::run() {
  return run_to(std::numeric_limits<std::int64_t>::max());
}

std::size_t Simulator::run_until(SimTime deadline) {
  const std::size_t fired = run_to(deadline.as_micros());
  if (now_ < deadline) now_ = deadline;
  return fired;
}

void Simulator::clear() {
  for (int level = 0; level < kLevels; ++level) {
    occupied_[level] = 0;
    for (int slot = 0; slot < kSlots; ++slot) heads_[level][slot] = kNil;
  }
  overflow_.clear();
  keyed_.clear();
  drain_.clear();
  drain_pos_ = 0;
  for (std::uint32_t index = 0;
       index < static_cast<std::uint32_t>(nodes_.size()); ++index) {
    if (nodes_[index].state != NodeState::kFree) free_node(index);
  }
  live_ = 0;
}

}  // namespace groupcast::sim
