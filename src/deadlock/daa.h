// The paper's new Deadlock Avoidance Algorithm (DAA, Algorithm 3).
//
// DaaEngine implements the full decision procedure over a live state
// matrix: immediate grants, pending requests, request-deadlock (R-dl)
// avoidance via priority comparison (Definitions 4/5), grant-deadlock
// (G-dl) avoidance by granting a released resource to a lower-priority
// waiter, and livelock resolution. Deadlock detection is a pluggable
// callback so the same engine is driven by software PDDA (RTOS3) or by
// the DDU hardware model inside the DAU (RTOS4).
#pragma once

#include <functional>
#include <vector>

#include "deadlock/meter.h"
#include "rag/reduce_planes.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Detection hook: true iff the candidate state has a deadlock.
using DetectFn = std::function<bool(const rag::StateMatrix&)>;

/// Outcome of a request event (Algorithm 3, lines 2-15).
enum class RequestOutcome : std::uint8_t {
  kGranted,          ///< resource was free, granted immediately (line 4)
  kPending,          ///< busy but safe: request queued (line 13)
  kOwnerAsked,       ///< R-dl + requester has priority: pending, owner asked
                     ///< to release (lines 7-8)
  kGiveUpAsked,      ///< R-dl + owner has priority: requester asked to give
                     ///< up its held resources (line 10)
  kDenied,           ///< R-dl: request rejected outright (variant policy);
                     ///< the requester must retry later
  kError,            ///< malformed (already owner / duplicate request)
};

/// Avoidance policy. The paper (§4.3.1) states two other approaches were
/// considered before Algorithm 3 was chosen for resolving livelock "more
/// actively and efficiently"; these are the natural alternatives:
enum class DaaPolicy : std::uint8_t {
  kAlgorithm3,       ///< the paper's DAA: priority-directed give-up
  kDenyOnRdl,        ///< reject any R-dl-causing request (Belik-style);
                     ///< livelock-prone — denied requesters retry forever
  kRequesterYields,  ///< on R-dl the requester always gives up its
                     ///< holdings, regardless of priority — livelock-free
                     ///< but high-priority work is repeatedly discarded
};

/// Outcome of a release event (Algorithm 3, lines 16-25).
enum class ReleaseOutcome : std::uint8_t {
  kIdle,             ///< no waiters: resource becomes available (line 24)
  kGrantedHighest,   ///< granted to highest-priority waiter (line 21)
  kGrantedLower,     ///< G-dl avoided: granted to a lower-priority waiter
                     ///< (lines 18-19)
  kLivelockResolved, ///< no waiter grantable: livelock breaker engaged
  kError,            ///< malformed (releaser does not hold the resource)
};

/// Result of DaaEngine::request().
struct RequestResult {
  RequestOutcome outcome = RequestOutcome::kError;
  bool r_dl = false;               ///< request deadlock was detected/avoided
  bool g_dl = false;               ///< grant arbitration hit a G-dl
  bool livelock = false;           ///< livelock breaker engaged
  rag::ProcId asked = rag::kNoProc;///< process asked to release/give up
  std::vector<rag::ResId> asked_resources;  ///< what it should give up
  /// A request to a free resource with queued waiters re-runs grant
  /// arbitration; the resource can then go to an *already-queued* waiter
  /// rather than the requester. That grant is committed in the state
  /// matrix, so the caller must learn who won (kGranted covers only the
  /// requester itself): kNoProc when nothing was handed out.
  rag::ProcId grantee = rag::kNoProc;
};

/// Result of DaaEngine::release().
struct ReleaseResult {
  ReleaseOutcome outcome = ReleaseOutcome::kError;
  bool g_dl = false;               ///< grant deadlock was detected/avoided
  rag::ProcId grantee = rag::kNoProc;
  rag::ProcId asked = rag::kNoProc;///< livelock victim, if any
  std::vector<rag::ResId> asked_resources;
};

/// Grant-arbitration order shared by DaaEngine and BankersEngine: the
/// waiters of q sorted by ascending `priority` value (smaller = higher
/// priority), ties by lower id, written into `out`. Charges the request
/// column scan and the sort to `meter`. Reserve `out` to the process
/// count and the call allocates nothing.
void waiters_by_priority(const rag::StateMatrix& state, rag::ResId q,
                         const std::vector<int>& priority,
                         std::vector<rag::ProcId>& out, OpMeter& meter);

/// Live DAA engine over one m x n system.
class DaaEngine {
 public:
  /// `detect` decides deadlock on candidate states; it is invoked with the
  /// engine's working matrix including tentative edges.
  DaaEngine(std::size_t resources, std::size_t processes, DetectFn detect,
            DaaPolicy policy = DaaPolicy::kAlgorithm3);

  [[nodiscard]] DaaPolicy policy() const { return policy_; }

  /// Smaller value == higher priority (p1 highest in the paper examples).
  void set_priority(rag::ProcId p, int priority);
  [[nodiscard]] int priority(rag::ProcId p) const { return priority_[p]; }

  /// Process `p` requests resource `q` (Algorithm 3 request arm).
  RequestResult request(rag::ProcId p, rag::ResId q);

  /// Process `p` releases resource `q` (Algorithm 3 release arm).
  ReleaseResult release(rag::ProcId p, rag::ResId q);

  /// Re-run grant arbitration on a free resource with waiters. Used after
  /// a livelock resolution: once the victim has given up its holdings, the
  /// resource that was left idle can be handed out safely.
  ReleaseResult retry_grant(rag::ResId q);

  /// Cancel a pending request (used when a process gives up waiting).
  void cancel_request(rag::ProcId p, rag::ResId q);

  /// Current state matrix (grants + pending requests).
  [[nodiscard]] const rag::StateMatrix& state() const { return state_; }
  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return state_.owner(q);
  }
  [[nodiscard]] bool is_pending(rag::ProcId p, rag::ResId q) const {
    return state_.at(q, p) == rag::Edge::kRequest;
  }

  /// Bookkeeping-operation meter for the most recent event (software DAA
  /// cost; excludes the detection callback's own cost).
  [[nodiscard]] const OpMeter& last_meter() const { return meter_; }

  /// Number of detection-callback invocations in the most recent event.
  [[nodiscard]] std::size_t last_detect_calls() const {
    return detect_calls_;
  }

 private:
  rag::StateMatrix state_;
  std::vector<int> priority_;
  DetectFn detect_;
  DaaPolicy policy_ = DaaPolicy::kAlgorithm3;
  OpMeter meter_;
  std::size_t detect_calls_ = 0;
  // Hot-path scratch, sized at construction: grant arbitration's waiter
  // list and the livelock breaker's reduction planes.
  std::vector<rag::ProcId> waiting_;
  rag::ReduceScratch scratch_;

  bool run_detect();
  /// Grant arbitration over a free resource with >= 1 waiter (Algorithm 3
  /// lines 17-22 + livelock breaker). Shared by release/request/retry.
  ReleaseResult arbitrate(rag::ResId q);
};

}  // namespace delta::deadlock
