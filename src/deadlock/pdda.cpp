#include "deadlock/pdda.h"

namespace delta::deadlock {

// The OpMeter models the serial byte-matrix implementation a compact C
// port on the MPC755 would use (one load + compares per cell, per
// Algorithms 1/2), so its counts are defined by that reference code:
// every count below is the exact aggregate of the per-cell increments
// the straightforward implementation would make on the m x n
// (sub)matrix. The scans are data-independent; only the round count,
// the terminal-row/column clears and the final scan's stopping cell
// vary, and the shared reduction reports each of them exactly.
bool SoftwarePdda::detect(const rag::StateMatrix& state,
                          const std::uint64_t* row_mask,
                          const std::uint64_t* col_mask) {
  const rag::PlaneReduction r =
      rag::reduce_planes(state, scratch_, row_mask, col_mask);
  iterations_ = r.iterations;

  const std::uint64_t m = r.rows;
  const std::uint64_t n = r.cols;
  const std::uint64_t mn = m * n;
  // Algorithm 1 evaluates the terminal sets once per reducing iteration
  // plus the final evaluation that finds none (line 7).
  const std::uint64_t passes = r.iterations + 1;
  std::uint64_t cleared_rows = 0, cleared_cols = 0;
  for (const std::uint32_t k : r.terminal_rows) cleared_rows += k;
  for (const std::uint32_t k : r.terminal_cols) cleared_cols += k;
  // Cells of every terminal row / column the clears walk.
  const std::uint64_t cleared_cells = n * cleared_rows + m * cleared_cols;
  // Lines 8-12 of Algorithm 2: the serial scan stops at the first
  // surviving edge (row-major), or visits every cell.
  const std::uint64_t visited = r.deadlock() ? r.first_edge : mn;

  meter_.reset();
  // Lines 2-6 of Algorithm 2, building the working matrix: per cell one
  // load, one store, index arithmetic and the loop test.
  meter_.loads += mn;
  meter_.stores += mn;
  meter_.alu += 2 * mn;
  meter_.branches += mn;
  // Per pass, lines 5-7 of Algorithm 1. Terminal rows: per cell one
  // load, two compares plus indexing and the loop test; per row the XOR,
  // its store and the terminal accumulation. Terminal columns likewise,
  // per column. Then the line 7 test.
  meter_.loads += passes * 2 * mn;
  meter_.alu += passes * (6 * mn + 2 * m + 2 * n);
  meter_.branches += passes * (2 * mn + m + n + 1);
  meter_.stores += passes * (m + n);
  // Per reducing iteration, lines 8-9: per row/column the terminal-flag
  // load and test; per cell of a terminal row/column the store, indexing
  // and loop test.
  meter_.loads += r.iterations * (m + n);
  meter_.branches += r.iterations * (m + n) + cleared_cells;
  meter_.stores += cleared_cells;
  meter_.alu += cleared_cells;
  // The final edge scan.
  meter_.loads += visited;
  meter_.alu += visited;
  meter_.branches += visited;
  return r.deadlock();
}

}  // namespace delta::deadlock
