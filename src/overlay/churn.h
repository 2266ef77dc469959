// Churn driver: schedules peer arrivals and departures on the simulator.
//
// The paper's Section 4.1 setup has peers joining "with intervals following
// an exponential distribution Expo(1s)".  For churn experiments we extend
// this with exponential session lengths and a configurable fraction of
// ungraceful failures (crash instead of goodbye).
#pragma once

#include "overlay/bootstrap.h"
#include "sim/simulator.h"

namespace groupcast::overlay {

struct ChurnOptions {
  sim::SimTime mean_interarrival = sim::SimTime::seconds(1.0);
  /// 0 disables departures: peers join and stay (Section 4.1 setting).
  sim::SimTime mean_session = sim::SimTime::zero();
  /// Weibull shape of the session-length distribution.  1.0 = exponential;
  /// Saroiu-style measured sessions are heavy-tailed (shape ~ 0.5: many
  /// short visits, a few very long residents).  The scale is derived so
  /// the mean stays `mean_session`.
  double session_shape = 1.0;
  /// Of the departures, this fraction crash instead of leaving gracefully.
  double failure_fraction = 0.3;
};

struct ChurnStats {
  std::size_t joins = 0;
  std::size_t graceful_leaves = 0;
  std::size_t failures = 0;
};

class ChurnModel {
 public:
  ChurnModel(sim::Simulator& simulator, GroupCastBootstrap& bootstrap,
             ChurnOptions options, util::Rng& rng);

  /// Schedules the staggered arrival of every peer in `arrival_order`.
  /// If sessions are enabled, each peer's departure is scheduled too.
  /// Call before Simulator::run().
  void start(const std::vector<PeerId>& arrival_order);

  const ChurnStats& stats() const { return stats_; }

 private:
  void schedule_departure(PeerId peer);

  sim::Simulator* simulator_;
  GroupCastBootstrap* bootstrap_;
  ChurnOptions options_;
  util::Rng rng_;
  ChurnStats stats_;
};

}  // namespace groupcast::overlay
