#include "core/subscription.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::core {

double SubscriptionReport::success_rate() const {
  if (outcomes.empty()) return 0.0;
  std::size_t ok = 0;
  for (const auto& o : outcomes) {
    if (o.success) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(outcomes.size());
}

double SubscriptionReport::average_response_time_ms() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (o.success) {
      total += o.response_time_ms;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

std::size_t SubscriptionReport::total_messages() const {
  std::size_t total = 0;
  for (const auto& o : outcomes) {
    total += o.search_messages + o.join_messages;
  }
  return total;
}

SubscriptionProtocol::SubscriptionProtocol(
    const overlay::PeerPopulation& population,
    const overlay::OverlayGraph& graph, SubscriptionOptions options)
    : population_(&population), graph_(&graph), options_(options) {
  GC_REQUIRE(options_.ripple_ttl >= 1);
}

std::size_t SubscriptionProtocol::join_via_reverse_path(
    const AdvertisementState& advert, overlay::PeerId start,
    SpanningTree& tree) const {
  GC_REQUIRE_MSG(advert.received(start),
                 "reverse-path join requires the advertisement");
  // Collect the chain from `start` up to the first peer already on the
  // tree (the rendezvous point at the latest).
  std::vector<overlay::PeerId> chain{start};
  overlay::PeerId at = start;
  while (!tree.contains(at)) {
    const auto up = advert.parent.at(at);
    // The rendezvous point is always on the tree, so the walk never asks
    // for its parent; any other node must have a proper parent.
    GC_ENSURE_MSG(up != overlay::kNoPeer && up != at,
                  "broken reverse advertisement path");
    at = up;
    chain.push_back(at);
    GC_ENSURE_MSG(chain.size() <= advert.parent.size(),
                  "cycle in advertisement parents");
  }
  // Attach top-down so every attach sees its parent already on the tree.
  for (std::size_t i = chain.size(); i-- > 1;) {
    tree.attach(chain[i - 1], chain[i]);
  }
  // One join message per hop walked, plus the acknowledgement.
  return chain.size() - 1;
}

std::optional<overlay::PeerId> SubscriptionProtocol::ripple_search(
    const AdvertisementState& advert, const SpanningTree& tree,
    overlay::PeerId subscriber, SubscriptionOutcome& outcome) const {
  // Scoped flood: TTL levels of neighbour expansion.  Every transmission
  // is one search message; nodes forward only on their first receipt;
  // holders of the advertisement respond instead of forwarding.
  std::unordered_map<overlay::PeerId, double> arrival;  // earliest query time
  arrival.emplace(subscriber, 0.0);
  std::vector<overlay::PeerId> frontier{subscriber};

  double best_response_ms = std::numeric_limits<double>::infinity();
  std::optional<overlay::PeerId> best_hit;

  for (std::size_t level = 0; level < options_.ripple_ttl; ++level) {
    std::vector<overlay::PeerId> next;
    for (const auto from : frontier) {
      const double t_from = arrival.at(from);
      for (const auto to : graph_->neighbors(from)) {
        if (to == subscriber) continue;
        ++outcome.search_messages;  // the query transmission
        const double t_to = t_from + population_->latency_ms(from, to);
        const auto [it, inserted] = arrival.try_emplace(to, t_to);
        if (!inserted) {
          it->second = std::min(it->second, t_to);
          continue;  // duplicate: dropped by the receiver
        }
        const bool hit = advert.received(to) || tree.contains(to);
        if (hit) {
          ++outcome.search_messages;  // the response transmission
          const double response = 2.0 * t_to;  // reverse path, same latency
          if (response < best_response_ms) {
            best_response_ms = response;
            best_hit = to;
          }
        } else {
          next.push_back(to);
        }
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  if (best_hit) outcome.response_time_ms = best_response_ms;
  return best_hit;
}

SubscriptionOutcome SubscriptionProtocol::subscribe(
    const AdvertisementState& advert, overlay::PeerId subscriber,
    SpanningTree& tree, MessageStats* stats) const {
  GC_REQUIRE(subscriber < population_->size());
  trace::counters().incr(subscriber, trace::CounterId::kSubscribeAttempts);
  SubscriptionOutcome outcome;
  outcome.subscriber = subscriber;

  if (tree.contains(subscriber)) {
    // Already a relay on the tree: flip to subscriber, no messages needed.
    tree.mark_subscriber(subscriber);
    outcome.success = true;
    outcome.had_advertisement = advert.received(subscriber);
    outcome.attach_point = tree.parent(subscriber);
    trace::counters().incr(subscriber,
                           trace::CounterId::kSubscribeSuccesses);
    trace::tracer().emit(0, trace::EventKind::kSubscriptionAttempt,
                         subscriber, outcome.attach_point, 1);
    return outcome;
  }

  if (advert.received(subscriber)) {
    outcome.had_advertisement = true;
    outcome.attach_point = advert.parent.at(subscriber);
    const auto hops = join_via_reverse_path(advert, subscriber, tree);
    outcome.join_messages = hops + 1;  // joins + final ack
    // Response time: the join confirmation from the immediate attach point.
    outcome.response_time_ms =
        2.0 * population_->latency_ms(subscriber, outcome.attach_point);
    tree.mark_subscriber(subscriber);
    outcome.success = true;
  } else {
    const auto hit = ripple_search(advert, tree, subscriber, outcome);
    trace::counters().incr(subscriber, trace::CounterId::kRippleSearches);
    trace::tracer().emit(0, trace::EventKind::kRippleSearch, subscriber,
                         hit ? *hit : overlay::kNoPeer,
                         outcome.search_messages);
    if (hit) {
      outcome.attach_point = *hit;
      // Join message to the hit (over a fresh unicast link) + its
      // reverse-path join if it is not on the tree yet + ack.
      std::size_t hops = 1;
      if (!tree.contains(*hit)) {
        hops += join_via_reverse_path(advert, *hit, tree);
      }
      tree.attach(subscriber, *hit);
      tree.mark_subscriber(subscriber);
      outcome.join_messages = hops + 1;
      outcome.response_time_ms +=
          2.0 * population_->latency_ms(subscriber, *hit);
      outcome.success = true;
    }
  }

  if (stats != nullptr) {
    stats->count(MessageKind::kRippleSearch, outcome.search_messages);
    stats->count(MessageKind::kSubscribeJoin, outcome.join_messages);
  }
  if (outcome.success) {
    trace::counters().incr(subscriber,
                           trace::CounterId::kSubscribeSuccesses);
  }
  // Centralized protocol: stamped at sim-time 0 (see docs/OBSERVABILITY.md);
  // stream order still reflects protocol order.
  trace::tracer().emit(0, trace::EventKind::kSubscriptionAttempt, subscriber,
                       outcome.attach_point, outcome.success ? 1 : 0);
  return outcome;
}

SubscriptionReport SubscriptionProtocol::subscribe_all(
    const AdvertisementState& advert,
    const std::vector<overlay::PeerId>& subscribers, SpanningTree& tree,
    MessageStats* stats) const {
  SubscriptionReport report;
  report.outcomes.reserve(subscribers.size());
  for (const auto s : subscribers) {
    report.outcomes.push_back(subscribe(advert, s, tree, stats));
  }
  return report;
}

}  // namespace groupcast::core
