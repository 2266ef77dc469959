// Discrete-event simulation kernel.
//
// This is the C++ equivalent of the p-sim simulator the paper's evaluation
// runs on: a single-threaded event loop with timestamped callbacks.  Events
// scheduled for the same instant run in scheduling (FIFO) order, which keeps
// protocol traces deterministic for a given seed.  Keyed events (message
// deliveries, see schedule_keyed_at) are the one exception: they fire
// first at their instant, in key order, however they were scheduled.
//
// The event queue is a hashed hierarchical timer wheel (kLevels levels of
// kSlots slots, one occupancy bitmap per level) over a slab of pooled event
// nodes:
//
//  * schedule / cancel / fire are amortized O(1) — no O(log n) heap
//    sift-downs on the per-message hot path, and no per-event allocation
//    once the slab has warmed up (freed nodes are recycled via a free
//    list).
//  * the fixed-signature timer path (schedule_timer) stores a bare
//    function pointer + context word in the pooled node, so periodic
//    protocol timers (heartbeats, retransmit timeouts) never touch
//    std::function at all.
//  * every schedule returns a TimerHandle that can cancel the event
//    before it fires; handles are generation-checked, so a
//    stale handle to an already-fired (and recycled) node is rejected
//    rather than cancelling an unrelated event.
//  * firing order is *exactly* the old binary-heap order — ascending
//    (when, seq) — because a level-0 slot spans a single microsecond and
//    is drained in sequence-number order.  Golden traces are unchanged.
//
// Events further out than the wheel horizon (2^36 us, ~19 simulated hours)
// park in an overflow heap and migrate into the wheel as the clock
// approaches them.
//
// Keyed events live beside the wheel in a min-heap of 24-byte (when, key,
// arg) entries that all fire one installed handler: an 88-byte wheel node
// per in-flight message would double the message's footprint.
//
// A Simulator instance is thread-confined, not thread-safe: one thread
// drives it for its whole lifetime.  Independent simulators may run on
// different threads concurrently — the tracing/counter/timer hooks they
// fire resolve to per-thread state (see trace/trace.h), so parallel
// scenario runs share nothing mutable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"
#include "trace/trace.h"

namespace groupcast::sim {

/// Reference to a scheduled event, returned by every schedule call.  Valid
/// until the event fires, is cancelled, or the simulator is cleared;
/// generation checks make stale handles inert (cancel returns false).
struct TimerHandle {
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  std::uint32_t slot = kInvalid;
  std::uint32_t generation = 0;

  /// False only for default-constructed (never-scheduled) handles.
  bool assigned() const { return slot != kInvalid; }

  friend bool operator==(TimerHandle, TimerHandle) = default;
};

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator simulator;
///   simulator.schedule(SimTime::millis(10), [&]{ ... });
///   auto timer = simulator.schedule_timer(SimTime::seconds(1), &on_tick,
///                                         this);
///   simulator.cancel(timer);
///   simulator.run();
class Simulator {
 public:
  using Action = std::function<void()>;
  /// Fixed-signature callback: no type erasure, no allocation.
  using TimerFn = void (*)(void* context, std::uint64_t arg);

  /// Current simulated time (updated as events fire).
  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` after the current time.
  /// Negative delays are a precondition violation.
  TimerHandle schedule(SimTime delay, Action action);

  /// Schedules `action` at an absolute instant (must be >= now()).
  TimerHandle schedule_at(SimTime when, Action action);

  /// Allocation-free form: schedules `fn(context, arg)` to run `delay`
  /// after the current time.  The context must outlive the event (or the
  /// event must be cancelled first).
  TimerHandle schedule_timer(SimTime delay, TimerFn fn, void* context,
                             std::uint64_t arg = 0);

  /// Allocation-free form at an absolute instant (must be >= now()).
  TimerHandle schedule_timer_at(SimTime when, TimerFn fn, void* context,
                                std::uint64_t arg = 0);

  /// Callback of keyed events: receives the event's key and argument.
  using KeyedFn = void (*)(void* context, std::uint64_t key,
                           std::uint64_t arg);
  /// Installs the handler every keyed event fires (the message plane's
  /// delivery hook); nullptr uninstalls it.  One handler per simulator.
  void set_keyed_handler(KeyedFn fn, void* context);

  /// Schedules a keyed event: at instant `when` it fires before every
  /// plain timer, and keyed events fire in ascending `key` order (equal
  /// keys in `arg` order).  `when` must lie strictly after now(),
  /// so no keyed event joins an instant already firing.  Not cancellable.
  void schedule_keyed_at(SimTime when, std::uint64_t key,
                         std::uint64_t arg = 0);

  /// Cancels a pending event.  Returns false if the handle is stale (the
  /// event already fired, was cancelled, or the simulator was cleared).
  bool cancel(TimerHandle handle);

  /// True while the event the handle refers to is still queued.
  bool timer_pending(TimerHandle handle) const;

  /// Runs until the event queue drains.  Returns the number of events fired.
  std::size_t run();

  /// Runs until the queue drains or simulated time would exceed `deadline`;
  /// events after the deadline remain queued.  Returns events fired.
  std::size_t run_until(SimTime deadline);

  /// Number of live events waiting in the queue, keyed ones included
  /// (cancelled events leave the count immediately).
  std::size_t pending() const { return live_; }

  /// Deepest the event queue has ever been for this simulator — the
  /// high-water mark observability hook.  Each new high-water also emits
  /// an EventLoopLag trace event when tracing is on.
  std::size_t queue_high_water() const { return queue_high_water_; }

  /// Total events fired over the simulator's lifetime.
  std::size_t events_fired() const { return events_fired_; }

  /// Resident bytes of timer state: the pooled event-node slab plus the
  /// overflow heap and drain batch.  Sized by capacity, so it reflects
  /// the high-water footprint, not the instantaneous queue depth.  Feeds
  /// the bytes_per_peer gauge in bench_micro.
  std::size_t memory_bytes() const {
    return sizeof(*this) + nodes_.capacity() * sizeof(EventNode) +
           overflow_.capacity() * sizeof(OverflowRef) +
           drain_.capacity() * sizeof(std::uint32_t) +
           keyed_.capacity() * sizeof(KeyedEvent);
  }

  /// Earliest pending event time; false when nothing is queued.  Public
  /// peek for the sharded epoch scheduler (sim/shard_set.h), which needs
  /// the global minimum over every shard's wheel to size the next
  /// lookahead epoch.  May migrate overflow entries but never fires
  /// events or advances the clock.
  bool peek_next_event(std::int64_t& when_us);

  /// Drops all pending events (used by tests and teardown).  Every
  /// outstanding TimerHandle becomes stale.
  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;               // 64
  static constexpr int kLevels = 6;
  static constexpr int kHorizonBits = kSlotBits * kLevels;    // 2^36 us

  /// Where a slab node currently lives.
  enum class NodeState : std::uint8_t {
    kFree,      // on the free list
    kWheel,     // linked into a wheel slot
    kOverflow,  // parked in the overflow heap
    kDrain,     // pulled into the current same-instant firing batch
  };

  struct EventNode {
    SimTime when;
    std::uint64_t seq = 0;       // FIFO tie-break for identical timestamps
    TimerFn fn = nullptr;        // fixed-signature path; null => action
    void* context = nullptr;
    std::uint64_t arg = 0;
    Action action;               // generic path (engaged iff fn == null)
    std::uint32_t next = kNil;   // slot chain / free list link
    std::uint32_t generation = 0;
    NodeState state = NodeState::kFree;
    bool cancelled = false;      // lazy cancel for kOverflow / kDrain
    std::uint8_t level = 0;      // wheel position (kWheel only)
    std::uint8_t wheel_slot = 0;
  };

  /// A keyed event; the keyed heap pops in ascending (when, key, arg).
  struct KeyedEvent {
    std::int64_t when_us;
    std::uint64_t key;
    std::uint64_t arg;
    friend auto operator<=>(const KeyedEvent&, const KeyedEvent&) = default;
  };

  /// Overflow entries ordered by (when, seq) via std::greater (min-heap).
  struct OverflowRef {
    std::int64_t when_us;
    std::uint64_t seq;
    std::uint32_t node;
    friend auto operator<=>(const OverflowRef& a, const OverflowRef& b) {
      if (a.when_us != b.when_us) return a.when_us <=> b.when_us;
      return a.seq <=> b.seq;
    }
  };

  std::uint32_t allocate_node();
  void free_node(std::uint32_t index);
  TimerHandle enqueue(SimTime when, TimerFn fn, void* context,
                      std::uint64_t arg, Action action);
  /// Links a node into the wheel / overflow / live drain batch.
  void place(std::uint32_t index);
  /// Unlinks a kWheel node from its slot chain.
  void unlink_from_wheel(EventNode& node, std::uint32_t index);
  /// Moves overflow entries that now fit the wheel horizon into the wheel.
  void migrate_overflow();
  /// The first occupied wheel slot at or after the cursor, lowest level
  /// first; false when the wheel is empty (the overflow heap may not be).
  bool first_occupied(int& level, int& slot) const;
  /// Earliest time a slot of `level` at index `slot` covers, given the
  /// cursor (the slot spans 2^(6 * level) microseconds from there).
  std::int64_t slot_start(int level, int slot) const;
  /// Earliest pending wheel event time; false when the wheel is empty.
  /// Does not advance the wheel cursor.
  bool next_wheel_time(std::int64_t& when_us);
  /// True when a pending wheel event is due at or before `deadline_us`.
  /// Exact like next_wheel_time, but an upper-level slot
  /// lying wholly on one side of the deadline is decided without walking
  /// its chain.
  bool event_due(std::int64_t deadline_us);
  /// Cascades upper wheel levels until the earliest pending events sit in
  /// a level-0 slot, then pulls that slot into drain order.  Returns false
  /// when nothing is queued.  Advances the cursor to the batch time.
  bool prepare_batch();
  /// Fires the prepared batch; returns events actually run.
  std::size_t fire_batch(trace::Tracer& tracer, bool tracing);
  /// Fires the earliest pending instant's keyed events, else its wheel
  /// batch, if it lies at or before `deadline_us`; false if none is due.
  bool fire_next(std::int64_t deadline_us, trace::Tracer& tracer,
                 bool tracing, std::size_t& fired);
  /// run() / run_until() without the final clock fast-forward.
  std::size_t run_to(std::int64_t deadline_us);
  /// Traces one event about to fire (and any new queue high-water).
  void trace_fire(trace::Tracer& tracer);

  int level_for(std::int64_t when_us) const;

  SimTime now_;
  /// Wheel read cursor, <= every queued event's timestamp.  Trails now_
  /// when run_until fast-forwards the clock past an empty stretch.
  std::int64_t cursor_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t queue_high_water_ = 0;
  std::size_t reported_high_water_ = 0;  // last mark traced as kEventLoopLag
  std::size_t events_fired_ = 0;

  std::uint64_t occupied_[kLevels] = {};
  std::uint32_t heads_[kLevels][kSlots];
  std::vector<EventNode> nodes_;
  std::uint32_t free_head_ = kNil;
  std::vector<OverflowRef> overflow_;  // std::push_heap min-heap
  /// Same-instant firing batch, sorted by seq; events scheduled for the
  /// batch's own timestamp while it drains append here (their seq is
  /// necessarily larger, so the order stays sorted).
  std::vector<std::uint32_t> drain_;
  std::size_t drain_pos_ = 0;
  bool draining_ = false;
  std::vector<KeyedEvent> keyed_;  // std::push_heap min-heap
  KeyedFn keyed_fn_ = nullptr;
  void* keyed_context_ = nullptr;

 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
};

}  // namespace groupcast::sim
