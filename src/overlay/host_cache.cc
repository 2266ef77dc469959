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
    coords_[victim_slot] = population_->info(peer).coord;
    position_[peer] = static_cast<std::int32_t>(victim_slot);
    return;
  }
  position_[peer] = static_cast<std::int32_t>(entries_.size());
  entries_.push_back(peer);
  coords_.push_back(population_->info(peer).coord);
}

bool HostCacheServer::contains(PeerId peer) const {
  GC_REQUIRE(peer < position_.size());
  return position_[peer] >= 0;
}

std::vector<PeerId> HostCacheServer::bootstrap_candidates(PeerId joiner) {
  GC_REQUIRE(joiner < position_.size());

  // Each entry's coordinate distance to the joiner, computed once.
  const coords::Coord& here = population_->info(joiner).coord;
  pool_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i] != joiner) {
      pool_.emplace_back(here.distance_to(coords_[i]), entries_[i]);
    }
  }
  if (pool_.empty()) return {};

  const std::size_t batch = std::min<std::size_t>(
      pool_.size(),
      options_.min_batch +
          rng_.uniform_index(options_.max_batch - options_.min_batch + 1));
  const auto closest_half = static_cast<std::ptrdiff_t>((batch + 1) / 2);

  // BD_i: closest by network-coordinate distance.  The comparator reads
  // the distance alone, so the whole pool ends in the permutation that
  // the BR_i draws below index into.
  std::partial_sort(pool_.begin(), pool_.begin() + closest_half, pool_.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
  std::vector<PeerId> result;
  result.reserve(batch);
  for (auto it = pool_.begin(); it != pool_.begin() + closest_half; ++it) {
    result.push_back(it->second);
  }

  // BR_i: random picks from the remainder, skipping duplicates.
  std::size_t attempts = 0;
  while (result.size() < batch && attempts < pool_.size() * 4 + 16) {
    ++attempts;
    const PeerId pick = pool_[rng_.uniform_index(pool_.size())].second;
    if (std::find(result.begin(), result.end(), pick) == result.end()) {
      result.push_back(pick);
    }
  }
  pool_.clear();
  return result;
}

}  // namespace groupcast::overlay
