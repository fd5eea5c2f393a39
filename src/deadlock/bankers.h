// Dijkstra's Banker's algorithm (paper §3.3.3, the prior-work avoidance
// scheme that needs claims declared in advance) as a kernel-drivable
// runtime engine. A refused request parks the requester on a request
// edge (block-and-retry instead of caller-side spinning), and a release
// re-runs grant arbitration over *all* free resources so parked waiters
// are handed their grants as soon as the state allows. Claims are
// per-process maximum-claims declarations; a process with no declared
// claims conservatively claims every resource. Waiters are tried in
// DaaEngine's order (waiters_by_priority, daa.h).
//
// Besides Result::grants, request() and release() allocate nothing: the
// safety probe and the arbitration sweep use scratch sized at
// construction.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "deadlock/meter.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Single-unit-resource Banker's algorithm with blocked-waiter queues.
class BankersEngine {
 public:
  BankersEngine(std::size_t resources, std::size_t processes);

  /// Declare the full claim set of process p (every resource it may ever
  /// request). Replaces any previous declaration; an empty `rs` restores
  /// the conservative claim-everything default.
  void declare_claims(rag::ProcId p, const std::vector<rag::ResId>& rs);

  /// Smaller value == higher priority (matches DaaEngine).
  void set_priority(rag::ProcId p, int priority);

  enum class Outcome : std::uint8_t {
    kGranted,        ///< free, claimed, and the post-grant state is safe
    kRefusedBusy,    ///< held by someone else: requester queues
    kRefusedUnsafe,  ///< free but granting would make the state unsafe:
                     ///< requester queues until a release changes the state
  };

  /// Result of request()/release(): the requester's outcome plus any
  /// grants handed to *other* (previously parked) waiters.
  struct Result {
    Outcome outcome = Outcome::kGranted;
    std::vector<std::pair<rag::ProcId, rag::ResId>> grants;
    bool unsafe_refusal = false;  ///< a safety probe refused someone
  };

  /// Process p requests resource q. A refusal records the request edge;
  /// the caller should block p until a later release grants it (surfaced
  /// through Result::grants).
  Result request(rag::ProcId p, rag::ResId q);

  /// Process p releases resource q, then grant arbitration runs to a
  /// fixpoint over every free resource with waiters (in resource order,
  /// waiters in priority order), committing every safe grant.
  Result release(rag::ProcId p, rag::ResId q);

  /// Cancel a pending request (process gave up waiting / was aborted).
  void cancel_request(rag::ProcId p, rag::ResId q);

  /// Safety check of the current allocation (exposed for tests). Request
  /// edges never affect safety: only grants consume availability.
  [[nodiscard]] bool is_safe();

  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return state_.owner(q);
  }
  [[nodiscard]] const rag::StateMatrix& state() const { return state_; }

  /// Bookkeeping-operation meter for the most recent event (includes
  /// every safety probe the event ran).
  [[nodiscard]] const OpMeter& last_meter() const { return meter_; }

  [[nodiscard]] std::uint64_t unsafe_refusals() const {
    return unsafe_refusals_;
  }

  /// Fault injection: skip the safety probe on request (grant anything
  /// free). Models a broken Banker implementation for the differential
  /// campaign.
  void force_unsafe_grants(bool on) { force_unsafe_ = on; }

 private:
  rag::StateMatrix state_;  // grants = holdings, requests = parked waiters
  std::vector<std::vector<std::uint8_t>> claim_;  // [p][q]
  std::vector<std::uint8_t> claim_all_;           // p has no declaration
  std::vector<int> priority_;
  OpMeter meter_;
  bool force_unsafe_ = false;
  std::uint64_t unsafe_refusals_ = 0;
  // Hot-path scratch, sized at construction: the safety probe's freed
  // resources and finished processes, and drain()'s waiter list.
  std::vector<std::uint8_t> freed_;
  std::vector<std::uint8_t> done_;
  std::vector<rag::ProcId> waiting_;

  [[nodiscard]] bool claimed(rag::ProcId p, rag::ResId q) const;
  /// Grant every safe (resource, waiter) pair until no more commit.
  void drain(Result& res);
};

}  // namespace delta::deadlock
