#include "overlay/churn.h"

#include <cmath>

#include "util/require.h"

namespace groupcast::overlay {

ChurnModel::ChurnModel(sim::Simulator& simulator,
                       GroupCastBootstrap& bootstrap, ChurnOptions options,
                       util::Rng& rng)
    : simulator_(&simulator),
      bootstrap_(&bootstrap),
      options_(options),
      rng_(rng.split()) {
  GC_REQUIRE(options_.mean_interarrival > sim::SimTime::zero());
  GC_REQUIRE(options_.session_shape > 0.0);
  GC_REQUIRE(options_.failure_fraction >= 0.0 &&
             options_.failure_fraction <= 1.0);
}

void ChurnModel::start(const std::vector<PeerId>& arrival_order) {
  sim::SimTime at = sim::SimTime::zero();
  for (const PeerId peer : arrival_order) {
    at += sim::SimTime::seconds(
        rng_.exponential(options_.mean_interarrival.as_seconds()));
    simulator_->schedule_at(at, [this, peer] {
      bootstrap_->join(peer);
      ++stats_.joins;
      if (options_.mean_session > sim::SimTime::zero()) {
        schedule_departure(peer);
      }
    });
  }
}

void ChurnModel::schedule_departure(PeerId peer) {
  // Weibull with mean `mean_session`: scale = mean / Gamma(1 + 1/shape).
  const double scale = options_.mean_session.as_seconds() /
                       std::tgamma(1.0 + 1.0 / options_.session_shape);
  const auto session =
      sim::SimTime::seconds(rng_.weibull(options_.session_shape, scale));
  const bool crash = rng_.chance(options_.failure_fraction);
  simulator_->schedule(session, [this, peer, crash] {
    if (!bootstrap_->is_joined(peer)) return;
    if (crash) {
      bootstrap_->fail(peer);
      ++stats_.failures;
    } else {
      bootstrap_->leave(peer);
      ++stats_.graceful_leaves;
    }
  });
}

}  // namespace groupcast::overlay
