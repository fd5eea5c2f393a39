// Deadlock Detection Unit (DDU) — hardware model (paper §4.2.2-4.2.4).
//
// The DDU holds the system state matrix in hardware cells (two bits per
// entry, Eq. 2) and evaluates one terminal-reduction step per hardware
// iteration: row/column Bit-Wise-Or aggregates (Eq. 3), XOR terminal tests
// (Eq. 4), the OR termination condition (Eq. 5), AND connect tests (Eq. 6)
// and the final deadlock decide (Eq. 7). All cells evaluate in parallel,
// which is what gives the O(min(m,n)) iteration bound the software PDDA
// cannot reach.
//
// The model is cycle-faithful, not gate-faithful: each iteration costs one
// bus-clock cycle. Each iteration's weight cells are evaluated at once,
// as word-parallel operations on the request/grant bit-planes, by the
// reduction every deadlock consumer shares (rag/reduce_planes.h); tests
// check it against the cell-by-cell reference reduction
// (tests/hw/ddu_test.cpp, tests/rag/reduce_planes_test.cpp).
//
// Cluster count. With C = 1 (the paper's unit) one m x n matrix reduces
// the whole state. With C > 1 the unit is sharded: C per-cluster units
// track their local edges and an inter-cluster resolver escalates
// cross-cluster residues to software on the invoking PE
// (deadlock/hierarchical.h). Verdicts are identical to the C = 1 unit;
// what changes is cost: matrix-cell area drops from m*n to ~m*n/C
// (hw/synth.h, sharded_ddu_area), the per-event unit latency is bounded
// by the largest cluster's iteration bound instead of 2*min(m,n)-3+1,
// and cross-cluster traffic pays an occasional residue charge on the PE.
#pragma once

#include <cstdint>
#include <optional>

#include "deadlock/hierarchical.h"
#include "obs/metrics.h"
#include "rag/reduce_planes.h"
#include "rag/state_matrix.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Result of one DDU computation run.
struct DduResult {
  bool deadlock = false;
  std::size_t iterations = 0;   ///< reduction steps that removed edges
                                ///< (sharded: the busiest cluster unit's)
  sim::Cycles cycles = 0;       ///< hardware time: max(iterations, 1)
  // Sharded units only; all read 0 at C = 1.
  bool escalated = false;       ///< the resolver ran the software residue
  sim::Cycles residue_pe_cycles = 0;  ///< software residue on the PE
  std::size_t residue_resources = 0;
};

/// Hardware DDU for a fixed m x n geometry split into `clusters` units.
class Ddu {
 public:
  Ddu(std::size_t resources, std::size_t processes, std::size_t clusters = 1);

  [[nodiscard]] std::size_t resources() const { return cells_.resources(); }
  [[nodiscard]] std::size_t processes() const { return cells_.processes(); }

  /// True when built with more than one cluster (hierarchical detector).
  [[nodiscard]] bool sharded() const { return hier_.has_value(); }
  /// Cluster units after clamping to [1, min(m, n)].
  [[nodiscard]] std::size_t clusters() const {
    return hier_ ? hier_->map().clusters() : 1;
  }

  /// PE-visible matrix-cell writes (one bus transaction each in the SoC;
  /// sharded: local cells go to the owning cluster unit, remote cells to
  /// the resolver table).
  void set_edge(rag::ResId s, rag::ProcId t, rag::Edge e) {
    cells_.set(s, t, e);
  }
  [[nodiscard]] rag::Edge edge(rag::ResId s, rag::ProcId t) const {
    return cells_.at(s, t);
  }

  /// Load a whole state.
  void load(const rag::StateMatrix& m);

  /// Current cell contents.
  [[nodiscard]] const rag::StateMatrix& matrix() const { return cells_; }

  /// Start the unit on the whole state: runs the reduction on working
  /// planes (the architectural matrix is preserved, as in the real unit
  /// where the weight-cell pipeline operates on shadow latches).
  DduResult run();

  /// Start the unit after an event whose edge changes all lie in row
  /// `res`. The same as run() at C = 1. Sharded, the event-incremental
  /// pass needs a deadlock-free pre-state (deadlock/hierarchical.h), so
  /// after a deadlock verdict or a load() the unit revalidates with
  /// whole-state passes until one comes back clean — a C = 1 unit
  /// re-reports a standing deadlock on every run, and so must this one.
  DduResult run_event(rag::ResId res);

  /// Evaluate an arbitrary state with this unit's detector, without
  /// loading it or counting a run (the DAU's embedded probe). `res` is
  /// the event row; rag::kNoRes asks for a whole-state pass.
  DduResult probe(const rag::StateMatrix& state, rag::ResId res);

  /// Run the C = 1 reduction on an arbitrary state. `scratch` holds the
  /// working planes; callers on hot paths keep one to avoid allocating.
  static DduResult evaluate(const rag::StateMatrix& state,
                            rag::ReduceScratch& scratch);
  static DduResult evaluate(const rag::StateMatrix& state);

  /// The DduResult of a finished reduction (shared with trace_ddu).
  static DduResult result_of(const rag::PlaneReduction& r);

  /// Proven upper bound on iterations of the whole m x n matrix:
  /// 2*min(m,n) - 3 (paper §4.2.1).
  [[nodiscard]] std::size_t iteration_bound() const;

  /// Worst-case unit cycles for one event: the largest cluster's
  /// iteration bound (iteration_bound() at C = 1).
  [[nodiscard]] std::size_t cluster_iteration_bound() const;

  /// min(rows, columns) of the largest cluster unit (min(m, n) at C = 1).
  /// Every per-unit worst case is monotone in it.
  [[nodiscard]] std::size_t cluster_span() const;

  /// Register the unit's counters; every run()/run_event() then bumps
  /// them. C = 1: "ddu.runs"/"ddu.iterations". Sharded:
  /// "sharded_ddu.runs"/".local_iterations"/".escalations". The registry
  /// must outlive the unit.
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  rag::StateMatrix cells_;
  std::optional<deadlock::HierarchicalDetector> hier_;  ///< C > 1 only
  rag::ReduceScratch scratch_;
  /// Last evaluation saw no deadlock (sharded only; load() resets it
  /// pessimistically: the loaded state has not been evaluated yet).
  bool clean_ = true;
  obs::Counter* ctr_runs_ = nullptr;
  obs::Counter* ctr_iterations_ = nullptr;
  obs::Counter* ctr_escalations_ = nullptr;  ///< sharded only

  DduResult finish(const DduResult& r);
};

}  // namespace delta::hw
