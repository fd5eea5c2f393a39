#include "hw/dau.h"

namespace delta::hw {

Dau::Dau(std::size_t resources, std::size_t processes, std::size_t clusters)
    : ddu_(resources, processes, clusters) {
  engine_ = std::make_unique<deadlock::DaaEngine>(
      resources, processes, [this](const rag::StateMatrix& s) {
        // Every Algorithm-3 probe mutates only row `command_res_` of the
        // working matrix, so while the committed state is deadlock-free a
        // sharded DDU's event-incremental check applies and returns the
        // C = 1 verdict. Algorithm 3 parks R-dl states, though (the
        // pending edge stays while the asked process unwinds), and a
        // parked cycle can sit in clusters the current command never
        // touches. A C = 1 probe reduces the full matrix and keeps seeing
        // it, so until the commit log proves the state clean again the
        // sharded probe falls back to whole-state passes (same verdict,
        // detect_all cost). At C = 1 the row is ignored.
        const DduResult r =
            ddu_.probe(s, clean_ ? command_res_ : rag::kNoRes);
        probe_cycles_ += r.cycles;
        if (r.escalated) {
          escalation_cycles_ += r.residue_pe_cycles;
          ++escalations_;
        }
        // Fault injection (tests): pretend every probe came back safe.
        return grant_fault_ ? false : r.deadlock;
      });
}

void Dau::set_priority(rag::ProcId p, int priority) {
  engine_->set_priority(p, priority);
}

DauStatus dau_status_from_request(const deadlock::RequestResult& r,
                                  rag::ResId q) {
  using deadlock::RequestOutcome;
  DauStatus st;
  st.done = true;  // kDenied (variant policies only) / kError complete
                   // unsuccessfully; the DAU proper always runs Algorithm 3
  st.successful = r.outcome == RequestOutcome::kGranted;
  st.pending = r.outcome == RequestOutcome::kPending ||
               r.outcome == RequestOutcome::kOwnerAsked ||
               r.outcome == RequestOutcome::kGiveUpAsked;
  st.r_dl = r.r_dl;
  st.g_dl = r.g_dl;
  st.livelock = r.livelock;
  st.which_resource = q;
  if (r.grantee != rag::kNoProc && !st.successful) st.granted_to = r.grantee;
  // The engine names a process only when it asks one to give up: the
  // R-dl owner/requester, or the livelock breaker's victim when the
  // request re-ran arbitration on a free resource.
  st.give_up = r.asked != rag::kNoProc;
  st.which_process = r.asked;
  return st;
}

DauStatus dau_status_from_release(const deadlock::ReleaseResult& r,
                                  rag::ResId q) {
  using deadlock::ReleaseOutcome;
  DauStatus st;
  st.done = true;
  st.g_dl = r.g_dl;
  st.which_resource = q;
  switch (r.outcome) {
    case ReleaseOutcome::kIdle:
      st.successful = true;
      break;
    case ReleaseOutcome::kGrantedHighest:
    case ReleaseOutcome::kGrantedLower:
      st.successful = true;
      st.which_process = r.grantee;
      break;
    case ReleaseOutcome::kLivelockResolved:
      st.livelock = true;
      // No victim when no deadlocked process holds anything.
      st.give_up = r.asked != rag::kNoProc;
      st.which_process = r.asked;
      break;
    case ReleaseOutcome::kError:
      break;
  }
  return st;
}

void Dau::begin_command(rag::ResId q) {
  command_res_ = q;
  probe_cycles_ = 0;
  escalation_cycles_ = 0;
  escalations_ = 0;
}

void Dau::end_command(const std::vector<rag::ResId>& asked,
                      sim::Cycles fsm) {
  last_cycles_ = fsm + probe_cycles_;
  last_escalation_cycles_ = escalation_cycles_;
  last_escalations_ = escalations_;
  asked_resources_ = asked;
  if (ctr_commands_ == nullptr) return;
  ctr_commands_->add();
  ctr_probes_->add(last_probes_);
  if (ctr_escalations_ != nullptr) ctr_escalations_->add(last_escalations_);
}

void Dau::note_release(deadlock::ReleaseOutcome o) {
  // kIdle / livelock resolution only remove edges: they may or may not
  // dissolve a parked cycle, so a dirty flag stays (conservatively) set.
  if (o == deadlock::ReleaseOutcome::kGrantedHighest ||
      o == deadlock::ReleaseOutcome::kGrantedLower)
    clean_ = true;
}

DauStatus Dau::request(rag::ProcId p, rag::ResId q) {
  begin_command(q);
  const deadlock::RequestResult r = engine_->request(p, q);
  last_probes_ = engine_->last_detect_calls();
  // Commit-log bookkeeping for the sharded probe's precondition. R-dl
  // parks a cycle in the committed state. Otherwise, when arbitration
  // probed at all and did not end in livelock resolution, the state the
  // engine committed is exactly the last probed (safe) state, so it is
  // provably deadlock-free again. Paths that commit without a probe
  // (immediate grant, duplicate request) cannot create a cycle and leave
  // the flag as-is.
  if (r.r_dl) clean_ = false;
  else if (last_probes_ > 0 && !r.livelock) clean_ = true;
  end_command(r.asked_resources, kRequestFsmSteps);
  return dau_status_from_request(r, q);
}

DauStatus Dau::release(rag::ProcId p, rag::ResId q) {
  begin_command(q);
  const deadlock::ReleaseResult r = engine_->release(p, q);
  last_probes_ = engine_->last_detect_calls();
  note_release(r.outcome);
  // The simple no-waiter path does not engage the queue-walk stages.
  end_command(r.asked_resources,
              last_probes_ == 0 ? kRequestFsmSteps : kReleaseFsmSteps);
  return dau_status_from_release(r, q);
}

DauStatus Dau::retry_grant(rag::ResId q) {
  begin_command(q);
  const deadlock::ReleaseResult r = engine_->retry_grant(q);
  last_probes_ = engine_->last_detect_calls();
  note_release(r.outcome);
  end_command(r.asked_resources, kReleaseFsmSteps);
  return dau_status_from_release(r, q);
}

void Dau::cancel_request(rag::ProcId p, rag::ResId q) {
  engine_->cancel_request(p, q);
}

void Dau::attach_metrics(obs::MetricsRegistry& m) {
  if (!sharded()) {
    ctr_commands_ = &m.counter("dau.commands");
    ctr_probes_ = &m.counter("dau.ddu_probes");
    return;
  }
  ctr_commands_ = &m.counter("sharded_dau.commands");
  ctr_probes_ = &m.counter("sharded_dau.probes");
  ctr_escalations_ = &m.counter("sharded_dau.escalations");
}

sim::Cycles Dau::worst_case_cycles() const {
  // Release with every process waiting, each probe hitting the DDU's
  // worst-case iteration count: n probes x (2*min-4) steps + FSM stages.
  const std::size_t k = ddu_.cluster_span();
  const std::size_t ddu_worst = k < 4 ? k : 2 * k - 4;
  return kReleaseFsmSteps +
         static_cast<sim::Cycles>(ddu_.processes() * ddu_worst);
}

}  // namespace delta::hw
