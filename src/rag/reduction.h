// Terminal reduction machinery (Definitions 7-13 and Algorithm 1).
//
// This is the *reference* (functional) implementation: a cell-by-cell
// transcription of the definitions, kept as the independent oracle for
// tests and for the differential harness's justification check.
// Production code runs the shared word-parallel reduction
// (rag/reduce_planes.h), which tests compare against this one.
#pragma once

#include <cstddef>
#include <vector>

#include "rag/state_matrix.h"
#include "rag/types.h"

namespace delta::rag {

/// Classification of a row/column node under Definitions 7/8.
///
/// In the hardware formulation (Eqs. 3-6) a node is *terminal* when its
/// aggregate (has-request XOR has-grant) is 1, and a *connect* node when
/// (has-request AND has-grant) is 1.
enum class NodeKind : std::uint8_t { kIsolated, kTerminal, kConnect };

/// Classify resource row s of `m`.
NodeKind classify_row(const StateMatrix& m, ResId s);

/// Classify process column t of `m`.
NodeKind classify_col(const StateMatrix& m, ProcId t);

/// T_r(M): indices of all terminal rows (Definition 9).
std::vector<ResId> terminal_rows(const StateMatrix& m);

/// T_c(M): indices of all terminal columns (Definition 10).
std::vector<ProcId> terminal_cols(const StateMatrix& m);

/// One terminal reduction step epsilon (Definition 12): removes every
/// terminal edge. Returns true when something was removed (i.e. the
/// matrix was reducible).
bool reduce_step(StateMatrix& m);

/// Result of running a full terminal reduction sequence xi (Definition 13).
struct ReductionResult {
  StateMatrix final;       ///< irreducible matrix M_{i,j+k}
  std::size_t steps = 0;   ///< k, number of epsilon applications that removed edges
  bool complete = false;   ///< true == all edges removed == no deadlock
};

/// Run xi(M) to fixpoint (Algorithm 1).
ReductionResult reduce(StateMatrix m);

/// Algorithm 2 (PDDA) in reference form: true iff `m` contains a deadlock.
bool has_deadlock(const StateMatrix& m);

/// Processes involved in a deadlock (columns that survive reduction with at
/// least one edge). Empty when no deadlock. Used for diagnostics/recovery.
std::vector<ProcId> deadlocked_processes(const StateMatrix& m);

/// Resources involved in a deadlock (rows that survive reduction).
std::vector<ResId> deadlocked_resources(const StateMatrix& m);

}  // namespace delta::rag
