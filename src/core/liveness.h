// EdgeLiveness — failure detection on a node's tree edges
// (docs/ROBUSTNESS.md, "Heartbeats and decentralized tree repair").
//
// Beats are one-way: each end of an edge beats the other on its own tick,
// and any message of the group on the edge stands in for a beat.  So each
// end keeps two stamps per neighbour (EdgeStamps, the same for the parent
// and for every child), and a tick asks the rule what is due on each
// edge: nothing, a beat, or giving the neighbour up.  The rule knows
// nothing of trees or transports; the node decides what a beat carries
// and what a dead neighbour means, and every time comes in as an argument.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/time.h"
#include "trace/trace.h"
#include "util/require.h"
#include "util/stats.h"

namespace groupcast::core {

/// Adaptive detection's per-window false-positive budget, and the widest
/// window it may open (bounds worst-case failure-detection latency).
inline constexpr double kFalsePositiveTarget = 1e-4;
inline constexpr std::size_t kMaxAdaptiveMisses = 12;

/// One end's view of one edge: when anything of the group last arrived
/// from the neighbour, and when this end last sent it anything.
class EdgeStamps {
 public:
  void heard(sim::SimTime now) { last_seen_ = now; }
  void sent(sim::SimTime now) { last_sent_ = now; }

 private:
  friend class EdgeLiveness;
  sim::SimTime last_seen_;
  sim::SimTime last_sent_;
};

/// What a group's tree record keeps besides its children's stamps.
class TreeLiveness {
 public:
  EdgeStamps parent;

 private:
  friend class EdgeLiveness;
  /// EWMA of the per-tick miss sample toward the current parent (1 when
  /// nothing arrived from it in the interval before the tick).
  double miss_ewma_ = 0.0;
  /// Until then every tick beats every child (position_changed).
  sim::SimTime news_until_;
};

class EdgeLiveness {
 public:
  /// What a tick finds due on one edge.
  enum class Due : std::uint8_t { kNothing, kBeat, kDead };

  /// A child gives its parent up after `floor_misses` silent intervals
  /// (the paper's two-miss rule), or, `adaptive`, after as many as its
  /// miss estimate needs, up to kMaxAdaptiveMisses.  A zero `interval`
  /// turns detection off.
  EdgeLiveness(sim::SimTime interval, std::size_t floor_misses,
               bool adaptive)
      : interval_(interval), floor_misses_(floor_misses), adaptive_(adaptive) {
    GC_REQUIRE(floor_misses >= 1);
    GC_REQUIRE(interval >= sim::SimTime::zero());
  }

  bool enabled() const { return interval_ > sim::SimTime::zero(); }
  bool adaptive() const { return adaptive_; }

  /// The parent edge on this tick: takes the adaptive miss sample, then
  /// kDead past the deadline, else kBeat if nothing went to the parent
  /// for an interval.
  Due parent_due(TreeLiveness& tree, sim::SimTime now) const {
    const auto silent = now - tree.parent.last_seen_;
    if (adaptive_) {
      // One miss sample per tick: did anything arrive from the parent
      // since the previous one?
      util::ewma_update(tree.miss_ewma_, silent < interval_ ? 0.0 : 1.0);
      trace::histograms().record(
          trace::HistogramId::kEstimatedLoss,
          static_cast<std::uint64_t>(std::llround(tree.miss_ewma_ * 1000.0)));
    }
    if (silent > parent_deadline(tree.miss_ewma_)) return Due::kDead;
    return now - tree.parent.last_sent_ >= interval_ ? Due::kBeat
                                                     : Due::kNothing;
  }
  /// One child edge on this tick: kDead past the prune deadline, else
  /// kBeat if nothing went to the child for an interval or the news
  /// window is open.
  Due child_due(const TreeLiveness& tree, const EdgeStamps& child,
                sim::SimTime now) const {
    if (now - child.last_seen_ > child_deadline()) return Due::kDead;
    const bool news = now < tree.news_until_;
    return news || now - child.last_sent_ >= interval_ ? Due::kBeat
                                                       : Due::kNothing;
  }
  /// A new parent: its edge is heard now, and the miss estimate learned
  /// on the old one starts over.
  void attached(TreeLiveness& tree, sim::SimTime now) const {
    tree.parent.heard(now);
    tree.miss_ewma_ = 0.0;
  }
  /// This node's depth or backup changed: every child gets every beat
  /// for one floor-sized window, so the news survives a lost beat.
  void position_changed(TreeLiveness& tree, sim::SimTime now) const {
    tree.news_until_ =
        now + interval_ * static_cast<std::int64_t>(floor_misses_);
  }

  /// How long the parent may stay silent at miss estimate `miss_ewma`.
  sim::SimTime parent_deadline(double miss_ewma) const {
    const std::size_t misses =
        adaptive_ ? adaptive_miss_threshold(miss_ewma, floor_misses_)
                  : floor_misses_;
    return interval_ * static_cast<std::int64_t>(misses);
  }
  /// How long a child may stay silent: the widest parent deadline a child
  /// could use (its estimate never reads above 1), plus one interval, so
  /// a child is never pruned while it still counts its parent live.
  sim::SimTime child_deadline() const {
    return parent_deadline(1.0) + interval_;
  }

  /// The adaptive widening rule: the smallest miss count k with
  /// miss_ewma^k <= kFalsePositiveTarget, clamped to
  /// [floor_misses, max(floor_misses, kMaxAdaptiveMisses)].
  static std::size_t adaptive_miss_threshold(double miss_ewma,
                                             std::size_t floor_misses) {
    const std::size_t cap = std::max(floor_misses, kMaxAdaptiveMisses);
    if (miss_ewma <= 0.0) return floor_misses;
    if (miss_ewma >= 1.0) return cap;
    // k consecutive misses are a false positive with probability miss^k,
    // so the smallest such k keeps spurious recoveries under budget.
    const double need = std::log(kFalsePositiveTarget) / std::log(miss_ewma);
    if (need >= static_cast<double>(cap)) return cap;
    const auto k = static_cast<std::size_t>(std::ceil(need));
    return std::min(std::max(k, floor_misses), cap);
  }

 private:
  sim::SimTime interval_;
  std::size_t floor_misses_;
  bool adaptive_;
};

}  // namespace groupcast::core
