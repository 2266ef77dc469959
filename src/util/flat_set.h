// Compact exact sets of 64-bit keys for the node runtime's dedup tables
// (seen payloads / seen queries): insert-heavy and never iterated.
//
// FlatSet64 is an open-addressing hash set.  Compared with
// std::unordered_set<uint64_t> — one heap node plus bucket pointer per
// element, ~40-56 bytes — it costs one 8-byte slot per element at <= 7/8
// load behind a 16-byte header, and a table starts at 4 slots, so the
// one or two ripple queries most peers ever see cost 32 bytes.
//
// WindowSet64 is for sequence-like keys: keys that share their high 32
// bits (a prefix, such as a payload's origin and stream) and mostly arrive
// in ascending order of their low 32 bits.  Each prefix keeps one window —
// a contiguous run of seen sequences below a floor plus a 64-bit bitmap
// above it — so a stream of chunks costs 24 bytes, not a slot per chunk
// (docs/PERFORMANCE.md, "The memory diet").
//
// Determinism: membership is a pure function of the inserted keys, so
// either set can stand in for unordered_set without changing behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace groupcast::util {

class FlatSet64 {
 public:
  FlatSet64() = default;
  /// A moved-from set is empty with no allocation, like a new one.
  FlatSet64(FlatSet64&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)),
        log2_slots_(std::exchange(other.log2_slots_, 0)),
        has_empty_key_(std::exchange(other.has_empty_key_, false)) {}
  FlatSet64& operator=(FlatSet64&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    log2_slots_ = std::exchange(other.log2_slots_, 0);
    has_empty_key_ = std::exchange(other.has_empty_key_, false);
    return *this;
  }

  /// Inserts `key`; returns true if it was not already present.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) return !std::exchange(has_empty_key_, true);
    if ((std::size_t{size_} + 1) * 8 > capacity() * 7) grow();
    std::uint64_t* slot = find_slot(key);
    if (*slot == key) return false;
    *slot = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    if (!slots_) return false;
    return *const_cast<FlatSet64*>(this)->find_slot(key) == key;
  }

  /// Removes `key`; returns true if it was present.  Backward-shift
  /// deletion: the probe runs behind the hole close up, so no tombstone
  /// is left behind.
  bool erase(std::uint64_t key) {
    if (key == kEmpty) return std::exchange(has_empty_key_, false);
    if (!slots_) return false;
    std::uint64_t* hole = find_slot(key);
    if (*hole != key) return false;
    const std::size_t mask = capacity() - 1;
    std::size_t at = static_cast<std::size_t>(hole - slots_.get());
    for (std::size_t next = (at + 1) & mask; slots_[next] != kEmpty;
         next = (next + 1) & mask) {
      // The key at `next` may fill the hole unless its home slot lies
      // cyclically in (at, next], where it would no longer be found.
      const std::size_t home =
          static_cast<std::size_t>(mix(slots_[next])) & mask;
      if (((next - home) & mask) >= ((next - at) & mask)) {
        slots_[at] = slots_[next];
        at = next;
      }
    }
    slots_[at] = kEmpty;
    --size_;
    return true;
  }

  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  /// Retained bytes beyond sizeof(*this): the slot array (none until the
  /// first insert).
  std::size_t memory_bytes() const {
    return capacity() * sizeof(std::uint64_t);
  }

 private:
  // 0 doubles as the empty-slot marker; a real 0 key is tracked aside.
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint8_t kFirstLog2Slots = 2;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: full avalanche, so sequential payload ids
    // spread across the table instead of clustering one probe run.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t capacity() const {
    return slots_ ? std::size_t{1} << log2_slots_ : 0;
  }

  /// Slot holding `key`, or the empty slot where it belongs.  Requires a
  /// non-full table (guaranteed by the load-factor check in insert).
  std::uint64_t* find_slot(std::uint64_t key) {
    const std::size_t mask = capacity() - 1;
    std::size_t at = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[at] != kEmpty && slots_[at] != key) at = (at + 1) & mask;
    return &slots_[at];
  }

  void grow() {
    const std::size_t old_slots = capacity();
    std::unique_ptr<std::uint64_t[]> old = std::move(slots_);
    log2_slots_ = old ? log2_slots_ + 1 : kFirstLog2Slots;
    // All kEmpty.
    slots_ = std::make_unique<std::uint64_t[]>(std::size_t{1} << log2_slots_);
    for (std::size_t i = 0; i < old_slots; ++i) {
      if (old[i] != kEmpty) *find_slot(old[i]) = old[i];
    }
  }

  std::unique_ptr<std::uint64_t[]> slots_;  // 2^log2_slots_ long, or null
  std::uint32_t size_ = 0;                  // non-zero keys stored
  std::uint8_t log2_slots_ = 0;
  bool has_empty_key_ = false;
};

class WindowSet64 {
 public:
  /// Inserts `key`; returns true if it was not already present.
  bool insert(std::uint64_t key) {
    const auto prefix = static_cast<std::uint32_t>(key >> 32);
    const auto seq = static_cast<std::uint32_t>(key);
    Window* window = find(prefix);
    if (window == nullptr) {
      windows_.push_back(Window{prefix, seq, std::uint64_t{seq} + 1, 0});
      return true;
    }
    Window& w = *window;
    if (seq < w.base) return spill().outside.insert(key);
    if (seq < w.floor) {  // a late fill of a hole, or a duplicate
      return spill_ != nullptr && spill_->holes.erase(key);
    }
    if (outside(key)) return false;
    std::uint64_t offset = seq - w.floor;
    if (offset >= kBits) {
      const std::uint64_t slide = offset - (kBits - 1);
      if (slide > kMaxSlide) return spill().outside.insert(key);
      // Every sequence the floor passes over and nobody saw stays behind
      // as a hole, so the run below the floor stays exact.
      for (std::uint64_t i = 0; i < slide; ++i) {
        const std::uint64_t passed = key_of(prefix, w.floor + i);
        const bool seen =
            (i < kBits && (w.bits >> i & 1) != 0) || outside(passed);
        if (!seen) spill().holes.insert(passed);
      }
      w.bits = slide < kBits ? w.bits >> slide : 0;
      w.floor += slide;
      offset = kBits - 1;
    } else if ((w.bits >> offset & 1) != 0) {
      return false;
    }
    w.bits |= std::uint64_t{1} << offset;
    // A key that went outside while it lay past the window stalls the
    // floor until a slide passes it; it stays outside, and seen.
    while ((w.bits & 1) != 0) {
      w.bits >>= 1;
      ++w.floor;
    }
    return true;
  }

  bool contains(std::uint64_t key) const {
    const auto seq = static_cast<std::uint32_t>(key);
    const Window* w = const_cast<WindowSet64*>(this)->find(
        static_cast<std::uint32_t>(key >> 32));
    if (w == nullptr) return false;
    if (seq >= w->base && seq < w->floor) {
      return spill_ == nullptr || !spill_->holes.contains(key);
    }
    if (seq >= w->floor && seq - w->floor < kBits &&
        (w->bits >> (seq - w->floor) & 1) != 0) {
      return true;
    }
    return outside(key);
  }

  /// Retained bytes beyond sizeof(*this): the windows by capacity and the
  /// side tables, if any.
  std::size_t memory_bytes() const {
    std::size_t bytes = windows_.capacity() * sizeof(Window);
    if (spill_ != nullptr) {
      bytes += sizeof(Spill) + spill_->holes.memory_bytes() +
               spill_->outside.memory_bytes();
    }
    return bytes;
  }

 private:
  static constexpr std::uint64_t kBits = 64;
  /// The farthest the floor moves for one key; a key further past the
  /// window goes outside instead of leaving that many holes.
  static constexpr std::uint64_t kMaxSlide = 4096;

  /// One prefix's sequences: every one in [base, floor) except the holes,
  /// and floor + i for each set bit i.  Bit 0 is always clear: the floor
  /// sits on a sequence the window has not seen (it may be outside).
  struct Window {
    std::uint32_t prefix;
    std::uint32_t base;
    std::uint64_t floor;
    std::uint64_t bits;
  };
  /// The exceptions, allocated on the first one: unseen sequences below
  /// their window's floor, and seen ones below its base or far past it.
  struct Spill {
    FlatSet64 holes;
    FlatSet64 outside;
  };

  static std::uint64_t key_of(std::uint32_t prefix, std::uint64_t seq) {
    return std::uint64_t{prefix} << 32 | static_cast<std::uint32_t>(seq);
  }

  Window* find(std::uint32_t prefix) {
    for (auto& w : windows_) {
      if (w.prefix == prefix) return &w;
    }
    return nullptr;
  }

  bool outside(std::uint64_t key) const {
    return spill_ != nullptr && spill_->outside.contains(key);
  }

  Spill& spill() {
    if (spill_ == nullptr) spill_ = std::make_unique<Spill>();
    return *spill_;
  }

  std::vector<Window> windows_;
  std::unique_ptr<Spill> spill_;
};

}  // namespace groupcast::util
