// Software implementation of the Parallel Deadlock Detection Algorithm
// (PDDA, Algorithms 1 and 2 of the paper), as it would run on one PE.
//
// "Parallel" refers to the algorithm's hardware-friendly structure; in
// software the terminal-row/column scans execute serially, which is
// exactly why the paper's RTOS1 configuration is slow (Table 5) and what
// the DDU (src/hw/ddu.h) accelerates. Every operation the serial code
// would perform is counted in an OpMeter for cycle accounting; the host
// runs the shared word-parallel reduction (rag/reduce_planes.h).
#pragma once

#include <cstdint>

#include "deadlock/meter.h"
#include "rag/reduce_planes.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Serial, instrumented PDDA.
class SoftwarePdda {
 public:
  explicit SoftwarePdda(SoftwareCostModel model = {}) : model_(model) {}

  /// Run Algorithm 2 on `state`. Returns true iff deadlock exists.
  bool detect(const rag::StateMatrix& state) {
    return detect(state, nullptr, nullptr);
  }

  /// Run Algorithm 2 on the submatrix of `state` selected by `row_mask`
  /// (words over resources) and `col_mask` (words over processes), as if
  /// it had been extracted first; null selects every row / column.
  bool detect(const rag::StateMatrix& state, const std::uint64_t* row_mask,
              const std::uint64_t* col_mask);

  /// Counters/cost of the most recent detect() call.
  [[nodiscard]] const OpMeter& last_meter() const { return meter_; }
  [[nodiscard]] sim::Cycles last_cycles() const {
    return model_.cycles(meter_);
  }

  /// Reduction iterations performed by the last detect() (the k of xi).
  [[nodiscard]] std::size_t last_iterations() const { return iterations_; }

  [[nodiscard]] const SoftwareCostModel& cost_model() const { return model_; }

 private:
  SoftwareCostModel model_;
  OpMeter meter_;
  std::size_t iterations_ = 0;
  // Reused across calls: detection runs on every request/release, so
  // the hot path never allocates.
  rag::ReduceScratch scratch_;
};

}  // namespace delta::deadlock
