#include "overlay/peer.h"

namespace groupcast::overlay {

CapacityDistribution::CapacityDistribution()
    : levels_{1.0, 10.0, 100.0, 1000.0, 10000.0},
      categorical_({0.20, 0.45, 0.30, 0.049, 0.001}) {}

double CapacityDistribution::sample(util::Rng& rng) const {
  return levels_[categorical_.sample(rng)];
}

double CapacityDistribution::resource_level(double capacity) const {
  double below = 0.0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i] < capacity) below += categorical_.probability(i);
  }
  return below;
}

}  // namespace groupcast::overlay
