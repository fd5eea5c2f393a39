// Resource manager: pluggable deadlock strategies.
//
// Table 3's configurations differ in how resource requests/releases are
// mediated:
//   RTOS1 — PDDA in software: grants are unconditional (highest-priority
//           waiter on release); software PDDA runs on the invoking PE
//           after every allocation event and reports deadlock.
//   RTOS2 — DDU: same grant policy; matrix-cell updates are bus writes
//           and the DDU computes concurrently in ~O(min(m,n)) cycles.
//   RTOS3 — DAA in software: Algorithm 3 decides every event, with
//           software PDDA as the embedded detector; all on the PE.
//   RTOS4 — DAU: Algorithm 3 in hardware (commands via bus).
//   none  — plain priority-granting manager (baseline, can deadlock
//           silently).
//
// Strategies mutate their tracked state synchronously and return the
// cycle costs; the kernel schedules the corresponding wake-ups/blocks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "deadlock/daa.h"
#include "deadlock/pdda.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "obs/observer.h"
#include "rtos/service_costs.h"
#include "rtos/types.h"
#include "sim/stats.h"

namespace delta::rtos {

/// Outcome of a strategy-mediated event.
struct ResourceEvent {
  bool granted = false;        ///< request: granted to the requester now
  sim::Cycles pe_cycles = 0;   ///< PE busy time (API + sw algorithm + bus)
  sim::Cycles unit_cycles = 0; ///< hardware unit compute time (hw units)
  bool deadlock_detected = false;  ///< detection strategies only

  /// Grants handed to *other* tasks (release arbitration).
  std::vector<std::pair<TaskId, ResourceId>> grants;

  /// Give-up demand (avoidance strategies).
  TaskId asked = kNoTask;
  std::vector<ResourceId> ask_give_up;
  bool r_dl = false, g_dl = false, livelock = false;
};

/// Strategy interface. TaskIds double as the matrix process index.
class DeadlockStrategy {
 public:
  virtual ~DeadlockStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  virtual ResourceEvent request(TaskId who, ResourceId res,
                                sim::Cycles now) = 0;
  virtual ResourceEvent release(TaskId who, ResourceId res,
                                sim::Cycles now) = 0;

  /// Re-attempt granting a free resource with waiters (after a livelock
  /// victim complied). Default: nothing to do.
  virtual ResourceEvent retry(ResourceId res, sim::Cycles now);

  /// Periodic detection hook (wait-for-graph recovery backend). The
  /// kernel invokes it every KernelConfig::detection_period cycles; the
  /// returned event carries the scan's software cost in pe_cycles and
  /// its verdict in deadlock_detected. Default: nothing to scan.
  virtual ResourceEvent scan(sim::Cycles now);

  /// Max-claims declarations (Banker's avoidance). claims[t] lists every
  /// resource task t may ever request; an empty inner list means "claims
  /// everything". Default: ignored.
  virtual void set_claims(const std::vector<std::vector<ResourceId>>& claims) {
    (void)claims;
  }

  /// Withdraw a pending request (deadlock recovery / task abort).
  virtual void cancel_request(TaskId who, ResourceId res) = 0;

  /// Owner of a resource (kNoTask when free).
  [[nodiscard]] virtual TaskId owner(ResourceId res) const = 0;

  /// Tracked allocation state (for tests/diagnostics); may be null.
  [[nodiscard]] virtual const rag::StateMatrix* state() const {
    return nullptr;
  }

  /// Priorities feed grant arbitration (smaller = higher).
  virtual void set_priority(TaskId who, Priority prio) = 0;

  /// Per-invocation algorithm times (the "Algorithm Run Time" column of
  /// Tables 5/7/9). Detection strategies sample the detector; avoidance
  /// strategies sample the full per-event decision time. Running totals
  /// only: a run's store stays constant-size however many calls it makes.
  [[nodiscard]] const sim::Accumulator& algorithm_times() const {
    return algo_times_;
  }
  [[nodiscard]] std::size_t invocations() const {
    return algo_times_.count();
  }

  /// Attach observability. Hardware-backed strategies register their
  /// unit's counters into the registry; the default is a no-op. Pass
  /// nullptr to keep the strategy unobserved.
  virtual void attach_observer(obs::Observer* o) { (void)o; }

  /// TEST ONLY: enable a named fault in the strategy's implementation so
  /// the differential fuzzer can prove it detects broken units. Returns
  /// true when the strategy recognizes the fault name:
  ///   "dau-grant"   (DAU)  — the grant-safety probe always reports safe
  ///   "ddu-silent"  (DDU)  — detection results are suppressed
  ///   "bankers-unsafe-grant" (Banker's) — the safety probe is skipped on
  ///                 request, so anything free is granted
  ///   "wfg-miss-cycle" (WFG) — periodic scans never report a cycle
  /// The default recognizes nothing.
  virtual bool enable_fault(const std::string& name) {
    (void)name;
    return false;
  }

 protected:
  sim::Accumulator algo_times_;
};

/// Factory helpers. `bus` may be null for strategies that do not touch
/// the bus (pure software); `master_of_task` maps TaskId -> bus master
/// index for the DAU's command/status traffic.
std::unique_ptr<DeadlockStrategy> make_none_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs);

std::unique_ptr<DeadlockStrategy> make_pdda_software_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs);

/// The hardware units take a cluster count. `clusters` = 1 is the paper's
/// unit (RTOS2 "ddu", RTOS4 "dau"); `clusters` > 1 shards it into
/// per-cluster units plus an inter-cluster resolver that escalates
/// cross-cluster residues to software on the invoking PE (hw/ddu.h,
/// deadlock/hierarchical.h). Detection/avoidance decisions are identical
/// at every cluster count; only the cost split differs.
std::unique_ptr<DeadlockStrategy> make_ddu_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs,
    bus::SharedBus* bus, std::size_t clusters = 1);

std::unique_ptr<DeadlockStrategy> make_daa_software_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs);

std::unique_ptr<DeadlockStrategy> make_dau_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs,
    bus::SharedBus* bus, std::vector<std::size_t> master_of_task,
    std::size_t clusters = 1);

/// Runtime Banker's avoidance (deadlock/bankers.h): max-claims
/// declarations via set_claims(); an unsafe request is refused and the
/// requester blocks until a release's grant arbitration hands it the
/// resource. Pure software on the invoking PE.
std::unique_ptr<DeadlockStrategy> make_bankers_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs);

/// Wait-for-graph periodic detection (deadlock/wfg.h): grants are
/// unconditional (same policy as PDDA/none); scan() collapses the RAG
/// into a process wait-for graph and reports cycles. Pair with a
/// KernelConfig::detection_period and a recovery policy.
std::unique_ptr<DeadlockStrategy> make_wfg_strategy(
    std::size_t resources, std::size_t tasks, const ServiceCosts& costs);

/// Prior-work software detector dropped into the RTOS in place of PDDA
/// (ablation: §3.3.2's complexity claims measured in-system).
enum class BaselineDetector : std::uint8_t { kHolt, kShoshani, kLeibfried };

std::unique_ptr<DeadlockStrategy> make_baseline_detection_strategy(
    BaselineDetector kind, std::size_t resources, std::size_t tasks,
    const ServiceCosts& costs);

}  // namespace delta::rtos
