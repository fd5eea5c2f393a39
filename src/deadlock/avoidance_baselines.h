// Prior-work deadlock *avoidance* baseline (paper §3.3.3): Belik (1990)
// path-matrix cycle prevention. A request/grant edge is admitted only if
// it closes no cycle; O(m*n) path-matrix updates. Belik offers no livelock
// remedy (the paper calls this out), which the avoidance benches
// demonstrate.
//
// Used by bench/scaling_avoidance and the comparison tests. The other
// §3.3.3 scheme, Banker's algorithm, is the runtime BankersEngine
// (bankers.h); the paper's own contribution (DAA/DAU) lives in daa.h.
#pragma once

#include <cstdint>
#include <vector>

#include "deadlock/meter.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Belik-style path-matrix avoidance over the RAG digraph.
class BelikAvoider {
 public:
  BelikAvoider(std::size_t resources, std::size_t processes);

  /// Request: if q is free, admit the grant iff it closes no cycle;
  /// if q is busy, admit the *request edge* iff it closes no cycle,
  /// otherwise refuse outright (the livelock hazard the paper notes).
  enum class Decision : std::uint8_t { kGranted, kWaiting, kRefusedCycle };
  Decision request(rag::ProcId p, rag::ResId q);

  /// Release; hands the resource to the oldest admitted waiter, if any.
  /// Returns the new owner or kNoProc.
  rag::ProcId release(rag::ProcId p, rag::ResId q);

  [[nodiscard]] const rag::StateMatrix& state() const { return state_; }
  [[nodiscard]] const OpMeter& meter() const { return meter_; }
  void reset_meter() { meter_.reset(); }

 private:
  rag::StateMatrix state_;
  std::vector<std::uint8_t> reach_;  // (n+m)^2 closure, row-major
  std::vector<std::vector<rag::ProcId>> fifo_;  // admitted waiters per res
  OpMeter meter_;

  [[nodiscard]] std::size_t nodes() const;
  [[nodiscard]] bool reachable(std::size_t from, std::size_t to) const;
  void add_edge_closure(std::size_t from, std::size_t to);
  void rebuild_closure();  // after releases (edge removals)
  [[nodiscard]] std::size_t pnode(rag::ProcId p) const { return p; }
  [[nodiscard]] std::size_t qnode(rag::ResId q) const {
    return state_.processes() + q;
  }
};

}  // namespace delta::deadlock
