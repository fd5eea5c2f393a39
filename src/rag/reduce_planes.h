// The terminal reduction (Algorithm 1, Eqs. 3-7) that every production
// consumer runs: the software PDDA and its op meter, the DDU model (and
// through it every DAU probe), the DDU waveform trace, the hierarchical
// cluster/residue checks, and the involved-process sets of livelock and
// recovery victim selection.
//
// It works word-parallel on the StateMatrix request/grant bit-planes,
// the way the DDU evaluates every weight cell at once per iteration, and
// never allocates once its caller-owned scratch has grown to the largest
// system reduced. An optional row set and column mask select a submatrix
// (a cluster, or a multi-cluster residue component) that is reduced in
// place on the full matrix, without first copying it out.
//
// rag/reduction.h keeps the cell-by-cell definitions as the independent
// oracle; tests check this reduction against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rag/state_matrix.h"

namespace delta::rag {

/// One weight-cell evaluation (one hardware iteration, including the
/// final one that finds nothing terminal). Masks use full-matrix
/// indices: bit s of tau_rows is resource s, bit t of tau_cols process t.
struct ReduceStep {
  std::span<const std::uint64_t> tau_rows;  ///< terminal rows (Eq. 4)
  std::span<const std::uint64_t> phi_rows;  ///< connect rows (Eq. 6)
  std::span<const std::uint64_t> tau_cols;  ///< terminal columns
  std::span<const std::uint64_t> phi_cols;  ///< connect columns
  std::size_t edges = 0;   ///< live edges this evaluation sees
  bool reducing = false;   ///< T_iter (Eq. 5): something is terminal
};

/// Per-iteration hook (waveform tracing). Reductions without an observer
/// skip building the step masks altogether.
class ReduceObserver {
 public:
  virtual void on_step(const ReduceStep& step) = 0;

 protected:
  ~ReduceObserver() = default;
};

/// Outcome of reduce_planes. The spans point into the scratch and stay
/// valid until the scratch is used again.
struct PlaneReduction {
  std::size_t rows = 0;        ///< m': selected rows
  std::size_t cols = 0;        ///< n': selected columns
  std::size_t iterations = 0;  ///< reduction steps that removed edges
  /// Terminal rows / columns removed by each iteration.
  std::span<const std::uint32_t> terminal_rows;
  std::span<const std::uint32_t> terminal_cols;
  /// Rows / columns that survive with at least one edge (words over the
  /// full matrix's resources / processes). Empty masks == no deadlock.
  std::span<const std::uint64_t> live_rows;
  std::span<const std::uint64_t> live_cols;
  /// 1-based row-major rank, within the m' x n' selection, of the first
  /// surviving edge; 0 when the selection reduced completely.
  std::size_t first_edge = 0;

  [[nodiscard]] bool deadlock() const { return first_edge != 0; }
};

class ReduceScratch;

/// Reduce `m` restricted to the rows in `row_mask` (words over
/// resources) and the columns in `col_mask` (words over processes);
/// a null mask selects every row / column. Selected rows keep their
/// ascending order, so ranks match the extracted submatrix's indices.
PlaneReduction reduce_planes(const StateMatrix& m, ReduceScratch& scratch,
                             const std::uint64_t* row_mask = nullptr,
                             const std::uint64_t* col_mask = nullptr,
                             ReduceObserver* observer = nullptr);

/// Working planes and masks for reduce_planes. Sized on demand and never
/// shrunk, so steady-state reductions do not allocate.
class ReduceScratch {
 private:
  friend PlaneReduction reduce_planes(const StateMatrix&, ReduceScratch&,
                                      const std::uint64_t*,
                                      const std::uint64_t*, ReduceObserver*);

  std::vector<std::uint64_t> req_, gnt_;  // one slot per selected row
  std::vector<std::uint32_t> slot_row_;   // slot -> resource index
  std::vector<std::uint32_t> live_;       // slots with an edge, ascending
  std::vector<std::uint8_t> row_tau_;     // per live_ position
  std::vector<std::uint64_t> col_sel_, col_r_, col_g_, col_tau_;
  std::vector<std::uint32_t> terminal_rows_, terminal_cols_;
  std::vector<std::uint64_t> live_rows_;
  std::vector<std::uint64_t> tau_rows_, phi_rows_, phi_cols_;  // observer
};

}  // namespace delta::rag
