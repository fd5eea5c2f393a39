// Deadlock Avoidance Unit (DAU) — hardware model (paper §4.3.2-4.3.3).
//
// Architecture per Fig. 14: command registers (request/release commands
// from each PE), status registers (done / busy / successful / pending /
// give-up / which-process / which-resource / livelock / G-dl / R-dl), an
// embedded DDU, and the DAA finite state machine (Algorithm 3).
//
// Decision logic is the shared DaaEngine (src/deadlock/daa.h) driven by
// the embedded DDU (hw/ddu.h); this file adds the FSM cycle accounting
// that Table 2 quotes: worst case = 8 FSM steps + (#probes x DDU steps),
// e.g. 6*5 + 8 = 38 for a 5x5 unit.
//
// With C > 1 clusters the embedded DDU is sharded. Every grant/pend/
// give-up decision stays bit-identical to the C = 1 unit (the
// hierarchical detector returns the same verdict on every probe); each
// probe pays the event cluster's small unit, and when the event cluster
// has incident cross-cluster edges a software residue that the invoking
// PE executes (last_escalation_cycles()).
#pragma once

#include <cstdint>
#include <memory>

#include "deadlock/daa.h"
#include "hw/ddu.h"
#include "obs/metrics.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Status-register snapshot after an event, mirroring Fig. 14's fields.
struct DauStatus {
  bool done = false;
  bool successful = false;  ///< granted (request) / handed over (release)
  bool pending = false;
  bool give_up = false;     ///< a process was asked to release resource(s)
  bool r_dl = false;
  bool g_dl = false;
  bool livelock = false;
  rag::ProcId which_process = rag::kNoProc;  ///< grantee or asked process
  rag::ResId which_resource = rag::kNoRes;
  /// Request command only: a request to a free resource with queued
  /// waiters re-arbitrates, and the resource can be handed to an
  /// already-queued waiter instead of the requester. The status register
  /// reports that grantee so the OS can unblock it (kNoProc otherwise;
  /// `successful` still means "the requester itself was granted"). The
  /// same re-arbitration can engage the livelock breaker, which latches
  /// `livelock` and the victim in give_up/which_process.
  rag::ProcId granted_to = rag::kNoProc;
};

/// Hardware DAU for a fixed m x n system with a `clusters`-unit DDU.
class Dau {
 public:
  Dau(std::size_t resources, std::size_t processes, std::size_t clusters = 1);

  [[nodiscard]] bool sharded() const { return ddu_.sharded(); }
  [[nodiscard]] std::size_t clusters() const { return ddu_.clusters(); }

  /// FSM step costs (bus cycles). The request path decodes the command,
  /// checks availability, optionally probes the DDU once, and latches
  /// status; the release path additionally walks the waiter queue with one
  /// DDU probe per candidate (Algorithm 3 lines 17-22).
  static constexpr sim::Cycles kRequestFsmSteps = 4;
  static constexpr sim::Cycles kReleaseFsmSteps = 8;

  /// Process p writes a REQUEST(q) command register.
  DauStatus request(rag::ProcId p, rag::ResId q);

  /// Process p writes a RELEASE(q) command register.
  DauStatus release(rag::ProcId p, rag::ResId q);

  /// Give-up-complete command: after a livelock victim released its
  /// holdings, the FSM re-runs grant arbitration on the idle resource.
  DauStatus retry_grant(rag::ResId q);

  /// Withdraw a pending request (the RTOS aborts/restarts a task).
  void cancel_request(rag::ProcId p, rag::ResId q);

  /// Priority table (one register per process; smaller = higher).
  void set_priority(rag::ProcId p, int priority);

  /// Unit cycles of the most recent command: FSM steps + DDU probes
  /// (sharded: the local cluster units; the escalated residue runs in
  /// software on the PE and is reported by last_escalation_cycles()).
  [[nodiscard]] sim::Cycles last_cycles() const { return last_cycles_; }

  /// Software residue cycles the invoking PE executed for the most
  /// recent command (0 at C = 1 and when no probe escalated).
  [[nodiscard]] sim::Cycles last_escalation_cycles() const {
    return last_escalation_cycles_;
  }

  /// DDU probes / escalated probes of the most recent command.
  [[nodiscard]] std::size_t last_probes() const { return last_probes_; }
  [[nodiscard]] std::size_t last_escalations() const {
    return last_escalations_;
  }

  /// Resources the asked process must give up (give_up status), matching
  /// the RequestResult/ReleaseResult from the decision engine.
  /// NOTE: the reference is invalidated by the next command — copy it
  /// before issuing the compliance releases.
  [[nodiscard]] const std::vector<rag::ResId>& asked_resources() const {
    return asked_resources_;
  }

  /// Internal tracked state (grants + pending requests).
  [[nodiscard]] const rag::StateMatrix& state() const {
    return engine_->state();
  }
  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return engine_->owner(q);
  }

  /// Worst-case unit cycles for one command (Table 2): n probes at the
  /// DDU's worst case + FSM stages. Sharded, each probe pays only the
  /// largest cluster's worst case.
  [[nodiscard]] sim::Cycles worst_case_cycles() const;

  /// TEST ONLY: flip the grant-safety check. When enabled, the FSM's
  /// embedded DDU probe result is discarded (every tentative grant is
  /// reported safe), so the unit grants its way into real deadlocks.
  /// The differential fuzzer uses this to prove it can catch a broken
  /// unit; never enable outside tests.
  void inject_grant_fault(bool on) { grant_fault_ = on; }
  [[nodiscard]] bool grant_fault() const { return grant_fault_; }

  /// Register the unit's counters; every command (request/release/
  /// retry_grant) then bumps them. C = 1: "dau.commands"/"dau.ddu_probes".
  /// Sharded: "sharded_dau.commands"/".probes"/".escalations".
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  void begin_command(rag::ResId q);
  void end_command(const std::vector<rag::ResId>& asked, sim::Cycles fsm);
  /// A committed grant was probed safe on the committed state itself.
  void note_release(deadlock::ReleaseOutcome o);

  Ddu ddu_;  ///< the embedded DDU; the engine probes through it
  std::unique_ptr<deadlock::DaaEngine> engine_;
  rag::ResId command_res_ = rag::kNoRes;  ///< probe context for detection
  sim::Cycles probe_cycles_ = 0;  // accumulated DDU time per command
  sim::Cycles escalation_cycles_ = 0;
  std::size_t escalations_ = 0;
  sim::Cycles last_cycles_ = 0;
  sim::Cycles last_escalation_cycles_ = 0;
  std::size_t last_probes_ = 0, last_escalations_ = 0;
  std::vector<rag::ResId> asked_resources_;
  /// The committed engine state is provably deadlock-free (sharded probes
  /// only). Cleared when Algorithm 3 parks an R-dl (the cycle stays in
  /// the matrix while the asked process unwinds); re-set once a command
  /// commits a state that a probe saw clean. While cleared, probes run
  /// whole-state detection (dau.cpp explains why).
  bool clean_ = true;
  bool grant_fault_ = false;
  obs::Counter* ctr_commands_ = nullptr;
  obs::Counter* ctr_probes_ = nullptr;
  obs::Counter* ctr_escalations_ = nullptr;  ///< sharded only
};

/// Map the decision engine's results onto the DauStatus register layout.
/// This is the one translation of an Algorithm 3 decision: the DAU at any
/// cluster count reports it, and the software DAA strategy reuses it, so
/// every avoidance backend presents the same status for the same decision.
DauStatus dau_status_from_request(const deadlock::RequestResult& r,
                                  rag::ResId q);
DauStatus dau_status_from_release(const deadlock::ReleaseResult& r,
                                  rag::ResId q);

}  // namespace delta::hw
