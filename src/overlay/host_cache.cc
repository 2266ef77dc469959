#include "overlay/host_cache.h"

#include <algorithm>

#include "util/require.h"

namespace groupcast::overlay {

HostCacheServer::HostCacheServer(const PeerPopulation& population,
                                 HostCacheOptions options, util::Rng& rng)
    : population_(&population),
      options_(options),
      rng_(rng.split()),
      position_(population.size(), -1) {
  GC_REQUIRE(options_.capacity > 0);
  GC_REQUIRE(options_.min_batch >= 2);
  GC_REQUIRE(options_.max_batch >= options_.min_batch);
}

void HostCacheServer::register_peer(PeerId peer) {
  GC_REQUIRE(peer < position_.size());
  if (position_[peer] >= 0) return;
  if (entries_.size() >= options_.capacity) {
    // Random replacement, as Gnucleus-style caches effectively do under
    // constant churn.
    const auto victim_slot = rng_.uniform_index(entries_.size());
    const PeerId victim = entries_[victim_slot];
    position_[victim] = -1;
    entries_[victim_slot] = peer;
    position_[peer] = static_cast<std::int32_t>(victim_slot);
    return;
  }
  position_[peer] = static_cast<std::int32_t>(entries_.size());
  entries_.push_back(peer);
}

bool HostCacheServer::contains(PeerId peer) const {
  GC_REQUIRE(peer < position_.size());
  return position_[peer] >= 0;
}

std::vector<PeerId> HostCacheServer::bootstrap_candidates(PeerId joiner) {
  GC_REQUIRE(joiner < position_.size());

  std::vector<PeerId> pool;
  pool.reserve(entries_.size());
  for (const PeerId p : entries_) {
    if (p != joiner) pool.push_back(p);
  }
  if (pool.empty()) return {};

  const std::size_t batch = std::min<std::size_t>(
      pool.size(),
      options_.min_batch +
          rng_.uniform_index(options_.max_batch - options_.min_batch + 1));
  const std::size_t closest_half = (batch + 1) / 2;

  // BD_i: closest by network-coordinate distance.
  std::partial_sort(
      pool.begin(),
      pool.begin() + static_cast<std::ptrdiff_t>(
                         std::min(closest_half, pool.size())),
      pool.end(), [&](PeerId a, PeerId b) {
        return population_->coord_distance_ms(joiner, a) <
               population_->coord_distance_ms(joiner, b);
      });
  std::vector<PeerId> result(
      pool.begin(),
      pool.begin() + static_cast<std::ptrdiff_t>(
                         std::min(closest_half, pool.size())));

  // BR_i: random picks from the remainder, skipping duplicates.
  std::size_t attempts = 0;
  while (result.size() < batch && attempts < pool.size() * 4 + 16) {
    ++attempts;
    const PeerId pick = pool[rng_.uniform_index(pool.size())];
    if (std::find(result.begin(), result.end(), pick) == result.end()) {
      result.push_back(pick);
    }
  }
  return result;
}

}  // namespace groupcast::overlay
