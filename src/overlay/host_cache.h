// Host cache server (bootstrap directory).
//
// "a joining peer i obtains a list of existing peers ... by contacting a
// host cache server.  The host cache server is an extension of Gnucleus,
// which caches the information of a list of peers that are currently active.
// ... the host cache sorts its cached entries in an ascending order by their
// network coordinate distances to peer i.  From the top of this sorted list,
// the host cache selects a list of peers BD_i.  They are returned together
// with a list of randomly selected peers BR_i.  |BR_i| = |BD_i| and
// 5 <= |B_i| <= 8."                                         (Section 3.3)
#pragma once

#include <utility>
#include <vector>

#include "overlay/population.h"

namespace groupcast::overlay {

struct HostCacheOptions {
  std::size_t capacity = 1000;     // max cached entries
  std::size_t min_batch = 5;       // lower bound on |B_i|
  std::size_t max_batch = 8;       // upper bound on |B_i|

  friend bool operator==(const HostCacheOptions&,
                         const HostCacheOptions&) = default;
};

class HostCacheServer {
 public:
  HostCacheServer(const PeerPopulation& population, HostCacheOptions options,
                  util::Rng& rng);

  /// Registers an active peer (on join).  Evicts a random entry when full.
  void register_peer(PeerId peer);

  bool contains(PeerId peer) const;
  std::size_t size() const { return entries_.size(); }
  /// The cached peers, in slot order.
  const std::vector<PeerId>& entries() const { return entries_; }

  /// Bootstrap query: returns B_i = BD_i ∪ BR_i (closest half by network
  /// coordinate distance to `joiner`, random half), never including the
  /// joiner itself.  Empty when the cache holds no other peer.
  std::vector<PeerId> bootstrap_candidates(PeerId joiner);

 private:
  const PeerPopulation* population_;
  HostCacheOptions options_;
  util::Rng rng_;
  std::vector<PeerId> entries_;           // insertion order (cheap eviction)
  std::vector<coords::Coord> coords_;     // entries_[i]'s coordinate
  std::vector<std::int32_t> position_;    // peer -> index in entries_, or -1
  /// bootstrap_candidates' (distance, entry) pool, kept between queries
  /// for its capacity and left empty after each, so a copy of the cache
  /// copies no pool.
  std::vector<std::pair<double, PeerId>> pool_;
};

}  // namespace groupcast::overlay
