// Message taxonomy and cost accounting for the GroupCast protocols.
//
// Figure 11 of the paper compares "advertising and subscription messages"
// across schemes; this collector gives every protocol component a single
// place to report transmissions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace groupcast::core {

enum class MessageKind : std::uint8_t {
  kAdvertisement = 0,   // SSA or NSSA propagation
  kRippleSearch,        // TTL-bounded subscription lookup
  kRippleResponse,      // lookup hit travelling back
  kSubscribeJoin,       // join travelling up the reverse advert path
  kSubscribeAck,        // confirmation from the attach point
  kPayload,             // group-communication payload on a tree edge
  kMaintenance,         // tree-edge heartbeats + recovery notifications
  kCount_,
};

inline constexpr std::size_t kMessageKinds =
    static_cast<std::size_t>(MessageKind::kCount_);

/// Lower-case name of a message kind, for reports.
inline const char* to_string(MessageKind kind) {
  static constexpr const char* kNames[] = {
      "advertisement", "ripple_search", "ripple_response", "subscribe_join",
      "subscribe_ack", "payload",       "maintenance",
  };
  static_assert(std::size(kNames) == kMessageKinds);
  return kNames[static_cast<std::size_t>(kind)];
}

/// Plain counters, one per message kind.
class MessageStats {
 public:
  void count(MessageKind kind, std::size_t n = 1) {
    counts_[static_cast<std::size_t>(kind)] += n;
  }
  std::size_t of(MessageKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::size_t advertisement_messages() const {
    return of(MessageKind::kAdvertisement);
  }
  std::size_t subscription_messages() const {
    return of(MessageKind::kRippleSearch) + of(MessageKind::kRippleResponse) +
           of(MessageKind::kSubscribeJoin) + of(MessageKind::kSubscribeAck);
  }
  std::size_t total() const {
    std::size_t sum = 0;
    for (const auto c : counts_) sum += c;
    return sum;
  }
  MessageStats& operator+=(const MessageStats& other) {
    for (std::size_t i = 0; i < kMessageKinds; ++i) {
      counts_[i] += other.counts_[i];
    }
    return *this;
  }

 private:
  std::array<std::size_t, kMessageKinds> counts_{};
};

}  // namespace groupcast::core
