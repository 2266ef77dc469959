#include "net/multicast.h"

#include "trace/trace.h"
#include "util/require.h"

namespace groupcast::net {

IpMulticastTree::IpMulticastTree(const IpRouting& routing, RouterId source,
                                 const std::vector<RouterId>& receivers)
    : routing_(&routing), source_(source) {
  std::unordered_set<RouterId> distinct;
  double total_delay = 0.0;
  for (const RouterId r : receivers) {
    total_delay += routing.distance_ms(source, r);
    if (r == source) continue;
    if (distinct.insert(r).second) {
      routing.for_each_path_link(source, r,
                                 [this](LinkId link) { links_.insert(link); });
    }
  }
  average_delay_ms_ =
      receivers.empty()
          ? 0.0
          : total_delay / static_cast<double>(receivers.size());
  trace::tracer().emit(0, trace::EventKind::kIpTreeBuilt,
                       static_cast<trace::NodeId>(source), trace::kNoNode,
                       links_.size());
}

double IpMulticastTree::delay_ms_to(RouterId receiver) const {
  return routing_->distance_ms(source_, receiver);
}

}  // namespace groupcast::net
