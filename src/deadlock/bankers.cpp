#include "deadlock/bankers.h"

#include <algorithm>

#include "deadlock/daa.h"

namespace delta::deadlock {

using rag::Edge;
using rag::ProcId;
using rag::ResId;

BankersEngine::BankersEngine(std::size_t resources, std::size_t processes)
    : state_(resources, processes),
      claim_(processes, std::vector<std::uint8_t>(resources, 0)),
      claim_all_(processes, 1),
      priority_(processes, 0),
      freed_(resources, 0),
      done_(processes, 0) {
  // Default priorities: p1 highest, i.e. priority == index (DaaEngine).
  for (ProcId p = 0; p < processes; ++p) priority_[p] = static_cast<int>(p);
  waiting_.reserve(processes);
}

void BankersEngine::declare_claims(ProcId p, const std::vector<ResId>& rs) {
  std::fill(claim_.at(p).begin(), claim_.at(p).end(), 0);
  claim_all_.at(p) = rs.empty() ? 1 : 0;
  for (ResId q : rs) claim_[p].at(q) = 1;
}

void BankersEngine::set_priority(ProcId p, int priority) {
  priority_.at(p) = priority;
}

bool BankersEngine::claimed(ProcId p, ResId q) const {
  return claim_all_[p] != 0 || claim_[p][q] != 0;
}

bool BankersEngine::is_safe() {
  const std::size_t m = state_.resources();
  const std::size_t n = state_.processes();
  std::fill(done_.begin(), done_.end(), 0);
  for (ResId s = 0; s < m; ++s) {
    freed_[s] = static_cast<std::uint8_t>(state_.owner(s) == rag::kNoProc);
    meter_.loads += 1;
    meter_.stores += 1;
  }
  // A process can finish if every *claimed but not yet held* resource is
  // currently free; finishing releases its holdings. Safe iff all finish.
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcId t = 0; t < n; ++t) {
      meter_.loads += 1;
      meter_.branches += 1;
      if (done_[t]) continue;
      bool can_finish = true;
      for (ResId s = 0; s < m; ++s) {
        meter_.loads += 3;
        meter_.branches += 2;
        if (claimed(t, s) && state_.at(s, t) != Edge::kGrant && !freed_[s]) {
          can_finish = false;
          break;
        }
      }
      meter_.branches += 1;
      if (!can_finish) continue;
      done_[t] = 1;
      progress = true;
      meter_.stores += 1;
      for (ResId s = 0; s < m; ++s) {
        meter_.loads += 1;
        meter_.branches += 1;
        if (state_.at(s, t) == Edge::kGrant) {
          freed_[s] = 1;
          meter_.stores += 1;
        }
      }
    }
  }
  return std::all_of(done_.begin(), done_.end(),
                     [](std::uint8_t d) { return d != 0; });
}

BankersEngine::Result BankersEngine::request(ProcId p, ResId q) {
  meter_.reset();
  Result res;

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.at(q, p) != Edge::kNone) {
    // Duplicate request / already the owner: malformed, refuse quietly.
    res.outcome = Outcome::kRefusedBusy;
    return res;
  }

  // An undeclared request widens the claim set on the fly. Classic
  // Banker's rejects it as a protocol error; a kernel has to stay live,
  // and widening is the conservative recovery (every safety decision
  // already made stays valid for the *current* grants — future probes
  // just see the larger claim).
  meter_.loads += 1;
  meter_.branches += 1;
  if (!claimed(p, q)) {
    claim_[p][q] = 1;
    meter_.stores += 1;
  }

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.owner(q) != rag::kNoProc) {
    state_.add_request(p, q);
    meter_.stores += 1;
    res.outcome = Outcome::kRefusedBusy;
    return res;
  }

  // Free: tentatively grant and probe safety. Queued waiters on a free
  // resource were all refused-unsafe at the last arbitration and nothing
  // has been released since, so they cannot have become grantable; only
  // the newcomer needs a probe.
  state_.add_grant(q, p);
  meter_.stores += 1;
  meter_.branches += 1;
  if (force_unsafe_ || is_safe()) {
    res.outcome = Outcome::kGranted;
    return res;
  }
  state_.clear(q, p);
  state_.add_request(p, q);
  meter_.stores += 2;
  ++unsafe_refusals_;
  res.outcome = Outcome::kRefusedUnsafe;
  res.unsafe_refusal = true;
  return res;
}

BankersEngine::Result BankersEngine::release(ProcId p, ResId q) {
  meter_.reset();
  Result res;

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.at(q, p) != Edge::kGrant) return res;  // not the owner

  state_.clear(q, p);
  meter_.stores += 1;
  drain(res);
  return res;
}

void BankersEngine::drain(Result& res) {
  // Grant arbitration to a fixpoint: a committed grant can make another
  // waiter's probe succeed (its safe sequence may need the new grantee
  // to finish first), so sweep until a full pass commits nothing.
  const std::size_t m = state_.resources();
  bool committed = true;
  while (committed) {
    committed = false;
    for (ResId s = 0; s < m; ++s) {
      meter_.loads += 1;
      meter_.branches += 1;
      if (state_.owner(s) != rag::kNoProc) continue;
      waiters_by_priority(state_, s, priority_, waiting_, meter_);
      for (ProcId cand : waiting_) {
        state_.clear(s, cand);
        state_.add_grant(s, cand);
        meter_.stores += 2;
        meter_.branches += 1;
        if (is_safe()) {
          res.grants.emplace_back(cand, s);
          committed = true;
          break;  // resource now busy
        }
        state_.clear(s, cand);
        state_.add_request(cand, s);
        meter_.stores += 2;
        ++unsafe_refusals_;
        res.unsafe_refusal = true;
      }
    }
  }
}

void BankersEngine::cancel_request(ProcId p, ResId q) {
  if (state_.at(q, p) == Edge::kRequest) state_.clear(q, p);
}

}  // namespace delta::deadlock
