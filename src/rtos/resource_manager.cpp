#include "rtos/resource_manager.h"

#include <algorithm>
#include <cassert>

#include "deadlock/bankers.h"
#include "deadlock/baselines.h"
#include "deadlock/wfg.h"

namespace delta::rtos {

using rag::Edge;

ResourceEvent DeadlockStrategy::retry(ResourceId, sim::Cycles) {
  return ResourceEvent{};
}

ResourceEvent DeadlockStrategy::scan(sim::Cycles) { return ResourceEvent{}; }

namespace {

// ----------------------------------------------------------------------
// Granting manager: the grant policy shared by the detection-style
// configurations (none / RTOS1 / RTOS2). Requests for busy resources
// queue; a release hands the resource to the highest-priority waiter
// unconditionally — which is exactly how the Table 4 scenario reaches
// deadlock at t5.
// ----------------------------------------------------------------------
class GrantingManagerBase : public DeadlockStrategy {
 public:
  GrantingManagerBase(std::size_t resources, std::size_t tasks,
                      const ServiceCosts& costs)
      : state_(resources, tasks), prio_(tasks, 0), costs_(costs) {
    for (std::size_t t = 0; t < tasks; ++t) prio_[t] = static_cast<int>(t);
  }

  void set_priority(TaskId who, Priority prio) override {
    prio_.at(who) = prio;
  }

  TaskId owner(ResourceId res) const override {
    const rag::ProcId p = state_.owner(res);
    return p == rag::kNoProc ? kNoTask : static_cast<TaskId>(p);
  }

  const rag::StateMatrix* state() const override { return &state_; }

  void cancel_request(TaskId who, ResourceId res) override {
    if (state_.at(res, who) == Edge::kRequest) {
      state_.clear(res, who);
      on_cancelled(who, res);
    }
  }

  ResourceEvent request(TaskId who, ResourceId res, sim::Cycles now) override {
    ResourceEvent ev;
    ev.pe_cycles = costs_.resource_service;
    changed_.clear();
    if (state_.at(res, who) != Edge::kNone) return ev;  // malformed
    if (state_.owner(res) == rag::kNoProc && !state_.row_has_request(res)) {
      set_cell(res, who, Edge::kGrant);
      ev.granted = true;
    } else {
      set_cell(res, who, Edge::kRequest);
    }
    run_detection(ev, now);
    return ev;
  }

  ResourceEvent release(TaskId who, ResourceId res, sim::Cycles now) override {
    ResourceEvent ev;
    ev.pe_cycles = costs_.resource_service;
    changed_.clear();
    if (state_.at(res, who) != Edge::kGrant) return ev;  // malformed
    set_cell(res, who, Edge::kNone);
    // Unconditional hand-off to the highest-priority waiter (ties: the
    // lowest task id).
    rag::ProcId next = rag::kNoProc;
    state_.for_each_waiter(res, [&](rag::ProcId t) {
      if (next == rag::kNoProc || prio_[t] < prio_[next]) next = t;
    });
    if (next != rag::kNoProc) {
      set_cell(res, next, Edge::kGrant);
      ev.grants.emplace_back(static_cast<TaskId>(next), res);
    }
    run_detection(ev, now);
    return ev;
  }

 protected:
  struct CellChange {
    ResourceId res;
    TaskId who;
    Edge value;
  };

  rag::StateMatrix state_;
  std::vector<Priority> prio_;
  ServiceCosts costs_;
  std::vector<CellChange> changed_;  ///< matrix-cell writes this event

  void set_cell(ResourceId res, TaskId who, Edge value) {
    state_.set(res, who, value);
    changed_.push_back(CellChange{res, who, value});
  }

  /// Hook: run the configured detector after the event's edge updates.
  virtual void run_detection(ResourceEvent& ev, sim::Cycles now) = 0;

  /// Hook: a pending request was withdrawn outside an event (recovery);
  /// hardware mirrors must clear the corresponding cell.
  virtual void on_cancelled(TaskId, ResourceId) {}
};

class NoneStrategy final : public GrantingManagerBase {
 public:
  using GrantingManagerBase::GrantingManagerBase;
  std::string name() const override { return "none"; }

 private:
  void run_detection(ResourceEvent&, sim::Cycles) override {}
};

// RTOS1: PDDA in software on the invoking PE.
class PddaSoftwareStrategy final : public GrantingManagerBase {
 public:
  PddaSoftwareStrategy(std::size_t resources, std::size_t tasks,
                       const ServiceCosts& costs)
      : GrantingManagerBase(resources, tasks, costs),
        pdda_(costs.software) {}

  std::string name() const override { return "pdda-software (RTOS1)"; }

 private:
  deadlock::SoftwarePdda pdda_;

  void run_detection(ResourceEvent& ev, sim::Cycles) override {
    const bool deadlock = pdda_.detect(state_);
    const sim::Cycles algo = pdda_.last_cycles();
    algo_times_.add(static_cast<double>(algo));
    ev.pe_cycles += algo;  // the PE executes the whole algorithm
    ev.deadlock_detected = deadlock;
  }
};

// RTOS2: DDU in hardware; cell updates are bus writes, the unit computes
// concurrently and interrupts on deadlock. A sharded DDU (C > 1) takes
// the same bus writes (the resolver's remote table is memory-mapped like
// the cluster units); detection runs in the event cluster's unit, and
// escalated residues execute as software on the invoking PE (charged to
// pe_cycles, not unit_cycles).
class DduStrategy final : public GrantingManagerBase {
 public:
  DduStrategy(std::size_t resources, std::size_t tasks, std::size_t clusters,
              const ServiceCosts& costs, bus::SharedBus* bus)
      : GrantingManagerBase(resources, tasks, costs),
        ddu_(resources, tasks, clusters),
        bus_(bus) {}

  std::string name() const override {
    if (!ddu_.sharded()) return "ddu (RTOS2)";
    return "ddu-sharded (C=" + std::to_string(ddu_.clusters()) + ")";
  }

  void attach_observer(obs::Observer* o) override {
    if (o != nullptr) ddu_.attach_metrics(o->metrics);
  }

  bool enable_fault(const std::string& name) override {
    if (name != "ddu-silent") return false;
    silent_ = true;
    return true;
  }

 private:
  hw::Ddu ddu_;
  bus::SharedBus* bus_;
  bool silent_ = false;  ///< fault injection: swallow detection results

  void on_cancelled(TaskId who, ResourceId res) override {
    ddu_.set_edge(res, who, Edge::kNone);
  }

  void run_detection(ResourceEvent& ev, sim::Cycles now) override {
    // Mirror the event's cell updates into the unit's matrix cells: one
    // bus word write each (the PE addresses cell (row, col) directly).
    for (const CellChange& c : changed_)
      ddu_.set_edge(c.res, c.who, c.value);
    if (bus_ != nullptr) {
      sim::Cycles done = now;
      for (std::size_t i = 0; i < changed_.size(); ++i)
        done = bus_->transfer(0, done, 1).complete;
      ev.pe_cycles += done > now ? done - now : 0;
    } else {
      ev.pe_cycles += 3 * changed_.size();
    }
    // Every well-formed event writes at least one cell, all in its row.
    const hw::DduResult r = ddu_.run_event(changed_.front().res);
    algo_times_.add(static_cast<double>(r.cycles));
    ev.unit_cycles = r.cycles;
    ev.pe_cycles += r.residue_pe_cycles;  // software residue on the PE
    ev.deadlock_detected = silent_ ? false : r.deadlock;
  }
};

// Prior-work software detectors in place of PDDA (ablation support).
class BaselineDetectionStrategy final : public GrantingManagerBase {
 public:
  BaselineDetectionStrategy(BaselineDetector kind, std::size_t resources,
                            std::size_t tasks, const ServiceCosts& costs)
      : GrantingManagerBase(resources, tasks, costs), kind_(kind) {}

  std::string name() const override {
    switch (kind_) {
      case BaselineDetector::kHolt: return "holt-software (baseline)";
      case BaselineDetector::kShoshani: return "shoshani-software (baseline)";
      case BaselineDetector::kLeibfried:
        return "leibfried-software (baseline)";
    }
    return "baseline";
  }

 private:
  BaselineDetector kind_;

  void run_detection(ResourceEvent& ev, sim::Cycles) override {
    deadlock::DetectRun run;
    switch (kind_) {
      case BaselineDetector::kHolt:
        run = deadlock::detect_holt(state_);
        break;
      case BaselineDetector::kShoshani:
        run = deadlock::detect_shoshani(state_);
        break;
      case BaselineDetector::kLeibfried:
        run = deadlock::detect_leibfried(state_);
        break;
    }
    const sim::Cycles algo = costs_.software.cycles(run.meter);
    algo_times_.add(static_cast<double>(algo));
    ev.pe_cycles += algo;
    ev.deadlock_detected = run.deadlock;
  }
};

// Wait-for-graph periodic detection-and-recovery: the same unconditional
// grant policy as none/RTOS1, but *no* per-event detection — cycles are
// found by the kernel-driven periodic scan() (KernelConfig::
// detection_period), which collapses the RAG into a process wait-for
// graph on the invoking PE. Detection latency is traded for per-event
// cost: allocation events are as cheap as the "none" baseline.
class WfgStrategy final : public GrantingManagerBase {
 public:
  using GrantingManagerBase::GrantingManagerBase;

  std::string name() const override { return "wfg-recovery (software)"; }

  ResourceEvent scan(sim::Cycles) override {
    ResourceEvent ev;
    const deadlock::WfgScan s = deadlock::scan_wait_for_graph(state_);
    const sim::Cycles algo = costs_.software.cycles(s.meter);
    algo_times_.add(static_cast<double>(algo));
    ev.pe_cycles = algo;
    ev.deadlock_detected = miss_ ? false : s.deadlock;
    return ev;
  }

  bool enable_fault(const std::string& name) override {
    if (name != "wfg-miss-cycle") return false;
    miss_ = true;
    return true;
  }

 private:
  bool miss_ = false;  ///< fault injection: scans never report a cycle

  void run_detection(ResourceEvent&, sim::Cycles) override {}
};

// ----------------------------------------------------------------------
// Avoidance strategies (RTOS3 / RTOS4).
// ----------------------------------------------------------------------

// An Algorithm 3 decision reaches the kernel in one way: the engine's
// result becomes a DAU status word (hw::dau_status_from_request /
// _from_release), and the status word becomes a ResourceEvent here. The
// software DAA and the DAU at any cluster count share both steps.
void copy_status(const hw::DauStatus& st,
                 const std::vector<rag::ResId>& asked, ResourceEvent& ev) {
  ev.r_dl = st.r_dl;
  ev.g_dl = st.g_dl;
  ev.livelock = st.livelock;
  if (!st.give_up) return;
  ev.asked = static_cast<TaskId>(st.which_process);
  ev.ask_give_up.assign(asked.begin(), asked.end());
}

ResourceEvent event_from_request(const hw::DauStatus& st,
                                 const std::vector<rag::ResId>& asked,
                                 ResourceId res) {
  ResourceEvent ev;
  ev.granted = st.successful;
  // Free-with-waiters arbitration can commit the grant to an
  // already-queued *other* waiter; surface it so the kernel wakes it.
  if (st.granted_to != rag::kNoProc)
    ev.grants.emplace_back(static_cast<TaskId>(st.granted_to), res);
  copy_status(st, asked, ev);
  return ev;
}

ResourceEvent event_from_release(const hw::DauStatus& st,
                                 const std::vector<rag::ResId>& asked,
                                 ResourceId res) {
  ResourceEvent ev;
  if (st.successful && st.which_process != rag::kNoProc)
    ev.grants.emplace_back(static_cast<TaskId>(st.which_process), res);
  copy_status(st, asked, ev);
  return ev;
}

// RTOS3: Algorithm 3 + software PDDA, all on the invoking PE.
class DaaSoftwareStrategy final : public DeadlockStrategy {
 public:
  DaaSoftwareStrategy(std::size_t resources, std::size_t tasks,
                      const ServiceCosts& costs)
      : costs_(costs),
        pdda_(costs.software),
        engine_(resources, tasks, [this](const rag::StateMatrix& s) {
          const bool dl = pdda_.detect(s);
          detect_cycles_ += pdda_.last_cycles();
          return dl;
        }) {}

  std::string name() const override { return "daa-software (RTOS3)"; }

  void set_priority(TaskId who, Priority prio) override {
    engine_.set_priority(who, prio);
  }

  TaskId owner(ResourceId res) const override {
    const rag::ProcId p = engine_.owner(res);
    return p == rag::kNoProc ? kNoTask : static_cast<TaskId>(p);
  }

  const rag::StateMatrix* state() const override { return &engine_.state(); }

  void cancel_request(TaskId who, ResourceId res) override {
    engine_.cancel_request(who, res);
  }

  ResourceEvent request(TaskId who, ResourceId res, sim::Cycles) override {
    detect_cycles_ = 0;
    const deadlock::RequestResult r = engine_.request(who, res);
    ResourceEvent ev = event_from_request(hw::dau_status_from_request(r, res),
                                          r.asked_resources, res);
    finish(ev);
    return ev;
  }

  ResourceEvent release(TaskId who, ResourceId res, sim::Cycles) override {
    detect_cycles_ = 0;
    const deadlock::ReleaseResult r = engine_.release(who, res);
    ResourceEvent ev = event_from_release(hw::dau_status_from_release(r, res),
                                          r.asked_resources, res);
    finish(ev);
    return ev;
  }

  ResourceEvent retry(ResourceId res, sim::Cycles) override {
    detect_cycles_ = 0;
    const deadlock::ReleaseResult r = engine_.retry_grant(res);
    ResourceEvent ev = event_from_release(hw::dau_status_from_release(r, res),
                                          r.asked_resources, res);
    finish(ev);
    return ev;
  }

 private:
  ServiceCosts costs_;
  deadlock::SoftwarePdda pdda_;
  deadlock::DaaEngine engine_;
  sim::Cycles detect_cycles_ = 0;

  void finish(ResourceEvent& ev) {
    const sim::Cycles algo = costs_.sw_avoidance_sync + detect_cycles_ +
                             costs_.software.cycles(engine_.last_meter());
    algo_times_.add(static_cast<double>(algo));
    ev.pe_cycles = costs_.resource_service + algo;
  }
};

// Runtime Banker's avoidance: max-claims safety probe on the invoking
// PE. A refused request (busy or unsafe) parks the requester on a
// request edge and the kernel blocks it; release-time grant arbitration
// (BankersEngine::drain) hands out every safe grant via ev.grants.
class BankersStrategy final : public DeadlockStrategy {
 public:
  BankersStrategy(std::size_t resources, std::size_t tasks,
                  const ServiceCosts& costs)
      : costs_(costs), engine_(resources, tasks) {}

  std::string name() const override { return "bankers (software)"; }

  void set_priority(TaskId who, Priority prio) override {
    engine_.set_priority(who, prio);
  }

  void set_claims(
      const std::vector<std::vector<ResourceId>>& claims) override {
    for (TaskId t = 0; t < claims.size(); ++t)
      engine_.declare_claims(t, claims[t]);
  }

  TaskId owner(ResourceId res) const override {
    const rag::ProcId p = engine_.owner(res);
    return p == rag::kNoProc ? kNoTask : static_cast<TaskId>(p);
  }

  const rag::StateMatrix* state() const override { return &engine_.state(); }

  void cancel_request(TaskId who, ResourceId res) override {
    engine_.cancel_request(who, res);
  }

  bool enable_fault(const std::string& name) override {
    if (name != "bankers-unsafe-grant") return false;
    engine_.force_unsafe_grants(true);
    return true;
  }

  ResourceEvent request(TaskId who, ResourceId res, sim::Cycles) override {
    const deadlock::BankersEngine::Result r = engine_.request(who, res);
    ResourceEvent ev;
    ev.granted = r.outcome == deadlock::BankersEngine::Outcome::kGranted;
    ev.r_dl = r.unsafe_refusal;  // an unsafe grant was avoided
    finish(ev);
    return ev;
  }

  ResourceEvent release(TaskId who, ResourceId res, sim::Cycles) override {
    const deadlock::BankersEngine::Result r = engine_.release(who, res);
    ResourceEvent ev;
    for (const auto& [t, q] : r.grants)
      ev.grants.emplace_back(static_cast<TaskId>(t), q);
    ev.g_dl = r.unsafe_refusal;  // a waiter stayed parked for safety
    finish(ev);
    return ev;
  }

 private:
  ServiceCosts costs_;
  deadlock::BankersEngine engine_;

  void finish(ResourceEvent& ev) {
    // Same cost shape as the software DAA: avoidance synchronization +
    // the metered bookkeeping (which includes every safety probe).
    const sim::Cycles algo = costs_.sw_avoidance_sync +
                             costs_.software.cycles(engine_.last_meter());
    algo_times_.add(static_cast<double>(algo));
    ev.pe_cycles = costs_.resource_service + algo;
  }
};

// RTOS4: the DAU; commands and status cross the bus, Algorithm 3 runs in
// the unit. A sharded DAU (C > 1) makes the same decisions; its probes
// pay the event cluster's small unit, and escalated residues run as
// software on the commanding PE before it can read the final status word.
class DauStrategy final : public DeadlockStrategy {
 public:
  DauStrategy(std::size_t resources, std::size_t tasks, std::size_t clusters,
              const ServiceCosts& costs, bus::SharedBus* bus,
              std::vector<std::size_t> master_of_task)
      : costs_(costs),
        dau_(resources, tasks, clusters),
        bus_(bus),
        master_of_task_(std::move(master_of_task)) {}

  std::string name() const override {
    if (!dau_.sharded()) return "dau (RTOS4)";
    return "dau-sharded (C=" + std::to_string(dau_.clusters()) + ")";
  }

  void attach_observer(obs::Observer* o) override {
    if (o != nullptr) dau_.attach_metrics(o->metrics);
  }

  bool enable_fault(const std::string& name) override {
    if (name != "dau-grant") return false;
    dau_.inject_grant_fault(true);
    return true;
  }

  void set_priority(TaskId who, Priority prio) override {
    dau_.set_priority(who, prio);
  }

  TaskId owner(ResourceId res) const override {
    const rag::ProcId p = dau_.owner(res);
    return p == rag::kNoProc ? kNoTask : static_cast<TaskId>(p);
  }

  const rag::StateMatrix* state() const override { return &dau_.state(); }

  void cancel_request(TaskId who, ResourceId res) override {
    dau_.cancel_request(who, res);
  }

  ResourceEvent request(TaskId who, ResourceId res, sim::Cycles now) override {
    ResourceEvent ev = event_from_request(dau_.request(who, res),
                                          dau_.asked_resources(), res);
    charge(ev, who, now);
    return ev;
  }

  ResourceEvent release(TaskId who, ResourceId res, sim::Cycles now) override {
    ResourceEvent ev = event_from_release(dau_.release(who, res),
                                          dau_.asked_resources(), res);
    charge(ev, who, now);
    return ev;
  }

  ResourceEvent retry(ResourceId res, sim::Cycles now) override {
    // Give-up-complete command: the FSM re-runs grant arbitration.
    ResourceEvent ev = event_from_release(dau_.retry_grant(res),
                                          dau_.asked_resources(), res);
    charge(ev, 0, now);
    return ev;
  }

 private:
  ServiceCosts costs_;
  hw::Dau dau_;
  bus::SharedBus* bus_;
  std::vector<std::size_t> master_of_task_;
  sim::Cycles unit_busy_until_ = 0;

  void charge(ResourceEvent& ev, TaskId who, sim::Cycles now) {
    // Command write (1 word) + unit busy + status read (1 word). The PE
    // waits for the status because the outcome gates its next action. A
    // sharded unit's escalation interposes before the final status is
    // valid: the resolver raises "escalate", the PE runs the residue
    // PDDA and writes the verdict back, then the FSM completes.
    const std::size_t master =
        who < master_of_task_.size() ? master_of_task_[who] : 0;
    const sim::Cycles unit = dau_.last_cycles();
    const sim::Cycles residue = dau_.last_escalation_cycles();
    algo_times_.add(static_cast<double>(unit + residue));
    ev.unit_cycles = unit;
    sim::Cycles done = now;
    if (bus_ != nullptr) {
      done = bus_->transfer(master, done, 1).complete;  // command write
      done = std::max(done + unit, unit_busy_until_);
      unit_busy_until_ = done;
      done += residue;  // software residue on the commanding PE
      done = bus_->transfer(master, done, 1).complete;  // status read
    } else {
      done = now + 3 + unit + residue + 3;
    }
    ev.pe_cycles = costs_.resource_service + (done - now);
  }
};

}  // namespace

std::unique_ptr<DeadlockStrategy> make_none_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs) {
  return std::make_unique<NoneStrategy>(resources, tasks, costs);
}

std::unique_ptr<DeadlockStrategy> make_pdda_software_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs) {
  return std::make_unique<PddaSoftwareStrategy>(resources, tasks, costs);
}

std::unique_ptr<DeadlockStrategy> make_ddu_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs,
    bus::SharedBus* bus, std::size_t clusters) {
  return std::make_unique<DduStrategy>(resources, tasks, clusters, costs,
                                       bus);
}

std::unique_ptr<DeadlockStrategy> make_daa_software_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs) {
  return std::make_unique<DaaSoftwareStrategy>(resources, tasks, costs);
}

std::unique_ptr<DeadlockStrategy> make_dau_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs,
    bus::SharedBus* bus, std::vector<std::size_t> master_of_task,
    std::size_t clusters) {
  return std::make_unique<DauStrategy>(resources, tasks, clusters, costs,
                                       bus, std::move(master_of_task));
}

std::unique_ptr<DeadlockStrategy> make_bankers_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs) {
  return std::make_unique<BankersStrategy>(resources, tasks, costs);
}

std::unique_ptr<DeadlockStrategy> make_wfg_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs) {
  return std::make_unique<WfgStrategy>(resources, tasks, costs);
}

std::unique_ptr<DeadlockStrategy> make_baseline_detection_strategy(
    BaselineDetector kind, std::size_t resources, std::size_t tasks,
    const ServiceCosts& costs) {
  return std::make_unique<BaselineDetectionStrategy>(kind, resources, tasks,
                                                     costs);
}

}  // namespace delta::rtos
