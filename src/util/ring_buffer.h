// FIFO ring buffer for the reliable data plane's per-edge queues (the
// retransmit buffer and the flow-control pending queue of EdgeTx).  Push
// at the back, pop at the front, index from the front.  Compared with
// std::deque — whose libstdc++ default constructor allocates a 64-slot
// map plus one 512-byte chunk, about 1.2 KB per EdgeTx holding two —
// this allocates nothing until the first push and then holds one
// power-of-two array that doubles when full (docs/PERFORMANCE.md,
// "Sharded execution & memory budget").
//
// Determinism: order and contents are those of a deque under the same
// pushes and pops, so swapping this in changes no observable behaviour.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/require.h"

namespace groupcast::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer&) = default;
  RingBuffer& operator=(const RingBuffer&) = default;
  /// A moved-from buffer is empty with no allocation, like a new one.
  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {
    other.slots_.clear();
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this == &other) return *this;
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    GC_REQUIRE(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 until the first push); the memory gauge's input.
  std::size_t capacity() const { return slots_.size(); }

  /// Drops every element; the allocation is kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  /// Doubles the array, moving the elements to the front in order.
  void grow() {
    std::vector<T> next(slots_.empty() ? kFirstCapacity : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two length, or empty
  std::size_t head_ = 0;  // index of the front element
  std::size_t size_ = 0;
};

}  // namespace groupcast::util
