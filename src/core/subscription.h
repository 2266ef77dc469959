// Subscription protocol (Section 2.2, Step 3).
//
// A peer that received the advertisement joins by sending the subscription
// up the reverse advertisement path; every hop it traverses becomes part of
// the spanning tree.  A peer the advertisement never reached performs a
// ripple search (scoped Gnutella flood, TTL = 2 by default) to find a
// nearby peer that holds the advertisement, attaches to it, and that peer
// in turn joins via its own reverse path.
//
// The "service lookup latency" of Figure 13 is the subscription response
// time: the interval between sending the first lookup/join message and
// receiving the acknowledgement from the attach point.
#pragma once

#include <optional>

#include "core/advertisement.h"
#include "core/spanning_tree.h"

namespace groupcast::core {

struct SubscriptionOptions {
  /// Initial TTL of the ripple search (the paper evaluates TTL = 2).
  std::size_t ripple_ttl = 2;

  friend bool operator==(const SubscriptionOptions&,
                         const SubscriptionOptions&) = default;
};

/// Per-subscriber outcome.
struct SubscriptionOutcome {
  overlay::PeerId subscriber = overlay::kNoPeer;
  bool success = false;
  bool had_advertisement = false;   // skipped the search entirely
  double response_time_ms = 0.0;    // lookup + ack latency
  std::size_t search_messages = 0;  // ripple flood + responses
  std::size_t join_messages = 0;    // joins up the reverse path + ack
  overlay::PeerId attach_point = overlay::kNoPeer;
};

/// Aggregate of one group's subscription phase.
struct SubscriptionReport {
  std::vector<SubscriptionOutcome> outcomes;

  double success_rate() const;
  double average_response_time_ms() const;  // over successful subscriptions
  std::size_t total_messages() const;
};

class SubscriptionProtocol {
 public:
  SubscriptionProtocol(const overlay::PeerPopulation& population,
                       const overlay::OverlayGraph& graph,
                       SubscriptionOptions options);

  /// Subscribes every peer in `subscribers` to the advertised group,
  /// growing `tree`.  Message counts also land in `stats` if non-null.
  SubscriptionReport subscribe_all(const AdvertisementState& advert,
                                   const std::vector<overlay::PeerId>& subscribers,
                                   SpanningTree& tree,
                                   MessageStats* stats = nullptr) const;

  /// Subscribes one peer; exposed for incremental joins in applications.
  SubscriptionOutcome subscribe(const AdvertisementState& advert,
                                overlay::PeerId subscriber, SpanningTree& tree,
                                MessageStats* stats = nullptr) const;

 private:
  /// Walks the reverse advertisement path from `start` (which must hold the
  /// advertisement), attaching every hop to the tree.  Returns the number
  /// of join messages spent (one per new tree edge walked).
  std::size_t join_via_reverse_path(const AdvertisementState& advert,
                                    overlay::PeerId start,
                                    SpanningTree& tree) const;

  /// Ripple search around `subscriber`.  Returns the best hit (peer holding
  /// the advertisement or already on the tree) and the response time, and
  /// accumulates message counts into `outcome`.
  std::optional<overlay::PeerId> ripple_search(
      const AdvertisementState& advert, const SpanningTree& tree,
      overlay::PeerId subscriber, SubscriptionOutcome& outcome) const;

  const overlay::PeerPopulation* population_;
  const overlay::OverlayGraph* graph_;
  SubscriptionOptions options_;
};

}  // namespace groupcast::core
