#include "sim/fault_plan.h"

#include "util/require.h"

namespace groupcast::sim {

void FaultPlan::validate() const {
  for (const auto& window : partitions) {
    GC_REQUIRE_MSG(window.begin < window.end,
                   "partition window must have begin < end");
    GC_REQUIRE_MSG(!window.side_a.empty() && !window.side_b.empty(),
                   "partition sides must be non-empty");
  }
}

}  // namespace groupcast::sim
