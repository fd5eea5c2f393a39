#include "deadlock/avoidance_baselines.h"

#include <algorithm>
#include <cassert>

namespace delta::deadlock {

using rag::Edge;
using rag::ProcId;
using rag::ResId;

// ----------------------------------------------------------------- Belik --

BelikAvoider::BelikAvoider(std::size_t resources, std::size_t processes)
    : state_(resources, processes),
      reach_((resources + processes) * (resources + processes), 0),
      fifo_(resources) {}

std::size_t BelikAvoider::nodes() const {
  return state_.processes() + state_.resources();
}

bool BelikAvoider::reachable(std::size_t from, std::size_t to) const {
  return reach_[from * nodes() + to] != 0;
}

void BelikAvoider::add_edge_closure(std::size_t from, std::size_t to) {
  // Path-matrix update: every predecessor-of-from reaches every
  // successor-of-to. O(N^2), the core of Belik's O(m*n) allocation step.
  const std::size_t nn = nodes();
  for (std::size_t a = 0; a < nn; ++a) {
    meter_.loads += 1;
    meter_.branches += 1;
    if (a != from && !reachable(a, from)) continue;
    for (std::size_t b = 0; b < nn; ++b) {
      meter_.loads += 1;
      meter_.branches += 1;
      if (b != to && !reachable(to, b)) continue;
      reach_[a * nn + b] = 1;
      meter_.stores += 1;
    }
  }
  reach_[from * nn + to] = 1;
  meter_.stores += 1;
}

void BelikAvoider::rebuild_closure() {
  // Edge removal invalidates the closure; rebuild from the adjacency by
  // Warshall. Belik's release-time path-matrix maintenance is O(m*n); a
  // full rebuild is the simple (more expensive) formulation — documented
  // in DESIGN.md and irrelevant to the admitted/refused decisions.
  const std::size_t nn = nodes();
  std::fill(reach_.begin(), reach_.end(), 0);
  const std::size_t n = state_.processes();
  for (ResId s = 0; s < state_.resources(); ++s) {
    for (ProcId t = 0; t < n; ++t) {
      const Edge e = state_.at(s, t);
      meter_.loads += 1;
      meter_.branches += 2;
      if (e == Edge::kRequest) reach_[pnode(t) * nn + qnode(s)] = 1;
      if (e == Edge::kGrant) reach_[qnode(s) * nn + pnode(t)] = 1;
    }
  }
  for (std::size_t k = 0; k < nn; ++k)
    for (std::size_t i = 0; i < nn; ++i) {
      meter_.loads += 1;
      meter_.branches += 1;
      if (!reach_[i * nn + k]) continue;
      for (std::size_t j = 0; j < nn; ++j) {
        meter_.loads += 2;
        meter_.alu += 1;
        reach_[i * nn + j] |= reach_[k * nn + j];
        meter_.stores += 1;
      }
    }
}

BelikAvoider::Decision BelikAvoider::request(ProcId p, ResId q) {
  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.owner(q) == rag::kNoProc) {
    // Admitting grant edge q->p: cycle iff p already reaches q.
    meter_.loads += 1;
    meter_.branches += 1;
    if (reachable(pnode(p), qnode(q))) return Decision::kRefusedCycle;
    state_.add_grant(q, p);
    add_edge_closure(qnode(q), pnode(p));
    meter_.stores += 1;
    return Decision::kGranted;
  }
  // Admitting request edge p->q: cycle iff q already reaches p.
  meter_.loads += 1;
  meter_.branches += 1;
  if (reachable(qnode(q), pnode(p))) return Decision::kRefusedCycle;
  state_.add_request(p, q);
  add_edge_closure(pnode(p), qnode(q));
  fifo_[q].push_back(p);
  meter_.stores += 2;
  return Decision::kWaiting;
}

ProcId BelikAvoider::release(ProcId p, ResId q) {
  assert(state_.at(q, p) == Edge::kGrant);
  state_.clear(q, p);
  meter_.stores += 1;
  rebuild_closure();
  // Allocation is an edge insertion and must pass the path-matrix check
  // like any other: hand q to the first admitted waiter whose grant edge
  // closes no cycle. A waiter can reach q through *other* requests it has
  // pending, so this re-check is required for safety.
  for (std::size_t i = 0; i < fifo_[q].size(); ++i) {
    const ProcId next = fifo_[q][i];
    state_.clear(q, next);  // consume the request edge
    rebuild_closure();
    meter_.loads += 1;
    meter_.branches += 1;
    if (reachable(pnode(next), qnode(q))) {
      state_.add_request(next, q);  // undo: still unsafe to grant
      rebuild_closure();
      continue;
    }
    state_.add_grant(q, next);
    add_edge_closure(qnode(q), pnode(next));
    fifo_[q].erase(fifo_[q].begin() + static_cast<std::ptrdiff_t>(i));
    meter_.stores += 2;
    return next;
  }
  return rag::kNoProc;
}

}  // namespace delta::deadlock
