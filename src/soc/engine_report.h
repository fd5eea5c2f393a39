// One system's engine-introspection snapshot.
//
// Bundles the sim-layer event-queue stats with the kernel-side service
// counters so the exp/bench layers can harvest one value object per run
// instead of poking at the simulator and kernel separately. Everything
// inside is derived from simulated state — deterministic for a fixed
// scenario — so the exp layer can serialize it into reports without
// breaking byte-identity across thread counts.
#pragma once

#include <algorithm>
#include <cstdint>

#include "rtos/engine_counters.h"
#include "sim/engine_stats.h"

namespace delta::soc {

/// Engine introspection for one Mpsoc run. `enabled` is false when
/// the config never asked for collection (MpsocConfig::engine_stats),
/// distinguishing "off" from a genuinely all-zero run.
struct EngineReport {
  bool enabled = false;
  std::uint64_t events_dispatched = 0;
  /// Queue memory retained at snapshot time; capacities never shrink,
  /// so this equals the peak (the run's RSS-equivalent for the queue).
  std::uint64_t queue_footprint_bytes = 0;
  sim::EngineStats queue;
  rtos::EngineCounters kernel;

  /// Fold another run's report into this one (campaign/sweep roll-ups).
  /// Sums and maxes only — commutative and associative, so aggregating
  /// in any completion order yields identical totals.
  void merge(const EngineReport& o) {
    enabled = enabled || o.enabled;
    events_dispatched += o.events_dispatched;
    queue_footprint_bytes =
        std::max(queue_footprint_bytes, o.queue_footprint_bytes);
    queue.merge(o.queue);
    kernel.merge(o.kernel);
  }
};

}  // namespace delta::soc
