// Open-addressing set of 64-bit keys, built for the node runtime's dedup
// tables (seen payloads / seen queries): insert-heavy, never iterated,
// never erased.  Compared with std::unordered_set<uint64_t> — one heap
// node plus bucket pointer per element, ~40-56 bytes — this costs one
// 8-byte slot per element at <= 7/8 load, which is what makes the
// per-peer memory budget at 100k peers (docs/PERFORMANCE.md, "Sharded
// execution & memory budget").
//
// Determinism: membership is a pure function of the inserted keys, so
// swapping this in for unordered_set changes no observable behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace groupcast::util {

class FlatSet64 {
 public:
  /// Inserts `key`; returns true if it was not already present.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      const bool fresh = !has_empty_key_;
      has_empty_key_ = true;
      return fresh;
    }
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    std::uint64_t* slot = find_slot(key);
    if (*slot == key) return false;
    *slot = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    if (slots_.empty()) return false;
    return *const_cast<FlatSet64*>(this)->find_slot(key) == key;
  }

  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  /// Retained bytes beyond sizeof(*this): the slot array (none until the
  /// first insert).
  std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(std::uint64_t);
  }

 private:
  // 0 doubles as the empty-slot marker; a real 0 key is tracked aside.
  static constexpr std::uint64_t kEmpty = 0;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: full avalanche, so sequential payload ids
    // spread across the table instead of clustering one probe run.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Slot holding `key`, or the empty slot where it belongs.  Requires a
  /// non-full table (guaranteed by the load-factor check in insert).
  std::uint64_t* find_slot(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[at] != kEmpty && slots_[at] != key) at = (at + 1) & mask;
    return &slots_[at];
  }

  void grow() {
    const std::size_t next = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(next, kEmpty);
    for (const std::uint64_t key : old) {
      if (key != kEmpty) *find_slot(key) = key;
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two length
  std::size_t size_ = 0;              // non-zero keys stored
  bool has_empty_key_ = false;
};

}  // namespace groupcast::util
