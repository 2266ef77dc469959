// FIFO ring buffer for the reliable data plane's per-edge queues (the
// retransmit buffer and the flow-control pending queue of EdgeTx).  Push
// at the back, pop at the front, index from the front.  Compared with
// std::deque — whose libstdc++ default constructor allocates a 64-slot
// map plus one 512-byte chunk, about 1.2 KB per EdgeTx holding two —
// this allocates nothing until the first push and then holds one
// power-of-two array that doubles when full, behind a 24-byte header
// (docs/PERFORMANCE.md, "Sharded execution & memory budget").
//
// Determinism: order and contents are those of a deque under the same
// pushes and pops, so swapping this in changes no observable behaviour.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/require.h"

namespace groupcast::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer& other) { *this = other; }
  RingBuffer& operator=(const RingBuffer& other) {
    if (this == &other) return *this;
    slots_ = other.slots_ ? std::make_unique<T[]>(other.capacity_) : nullptr;
    std::copy_n(other.slots_.get(), other.slots_ ? other.capacity_ : 0,
                slots_.get());
    head_ = other.head_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    return *this;
  }
  /// A moved-from buffer is empty with no allocation, like a new one.
  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this == &other) return *this;
    slots_ = std::move(other.slots_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    slots_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }

  void pop_front() {
    GC_REQUIRE(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (capacity_ - 1)];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 until the first push); the memory gauge's input.
  std::size_t capacity() const { return capacity_; }

  /// Drops every element; the allocation is kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 4;

  /// Doubles the array, moving the elements to the front in order.
  void grow() {
    GC_REQUIRE(capacity_ < (std::uint32_t{1} << 31));
    const std::uint32_t next = capacity_ == 0 ? kFirstCapacity : capacity_ * 2;
    auto slots = std::make_unique<T[]>(next);
    for (std::uint32_t i = 0; i < size_; ++i) slots[i] = std::move((*this)[i]);
    slots_ = std::move(slots);
    capacity_ = next;
    head_ = 0;
  }

  // A 24-byte header: one array pointer and three 32-bit indices, where a
  // std::vector plus two size_t would take 40.
  std::unique_ptr<T[]> slots_;  // capacity_ long (a power of two), or null
  std::uint32_t head_ = 0;      // index of the front element
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace groupcast::util
