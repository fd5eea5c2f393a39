// Task control block.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtos/flat_containers.h"
#include "rtos/program.h"
#include "rtos/types.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace delta::rtos {

/// One task (the kernel owns these; applications configure them through
/// Kernel::create_task and the Program builder).
struct Task {
  TaskId id = kNoTask;
  std::string name;
  PeId pe = 0;                    ///< tasks are pinned to a PE (as in §5.3)
  Priority base_priority = 0;     ///< smaller = higher
  Priority priority = 0;          ///< effective (inheritance/ceiling)
  TaskState state = TaskState::kNotStarted;
  WaitKind wait_kind = WaitKind::kNone;

  Program program;
  std::size_t pc = 0;             ///< next op index
  sim::Cycles compute_left = 0;   ///< remaining cycles of a preempted Compute

  /// Dispatch generation: bumped whenever the task is (re)dispatched or
  /// recovered, so in-flight completion events can detect they are stale.
  std::uint64_t gen = 0;

  /// In-flight Compute completion event (valid iff compute_armed).
  sim::EventId compute_event = 0;
  bool compute_armed = false;
  sim::Cycles compute_done_at = 0;  ///< absolute finish time while armed

  sim::Cycles release_time = 0;   ///< arrival (start) time
  sim::Cycles started_at = sim::kNeverCycles;
  sim::Cycles finished_at = sim::kNeverCycles;

  /// Relative response-time requirement (WCRT, §5.5 / Fig. 19); 0 = none.
  /// Checked against turnaround when the task finishes (for periodic
  /// tasks: against each activation's response time).
  sim::Cycles deadline = 0;

  /// Periodic activation (0 = one-shot). A periodic task re-runs its
  /// program every `period` cycles until `activations_left` reaches zero.
  sim::Cycles period = 0;
  std::uint32_t activations_left = 0;
  std::uint32_t activations_done = 0;
  std::uint32_t deadline_miss_count = 0;
  sim::Cycles worst_response = 0;  ///< max observed activation response

  /// Deadlock-managed resources.
  FlatSet<ResourceId> held;
  FlatSet<ResourceId> waiting_for;

  /// Give-up demands raised by the avoidance strategy and not yet
  /// complied with, and the resources of the latest one (this task must
  /// release them, then re-request them since it still needs them).
  std::uint32_t give_ups_in_flight = 0;
  std::vector<ResourceId> last_give_up;

  /// Named allocation slots (op::Alloc/op::Free).
  FlatMap<std::string, std::uint64_t> allocations;

  /// Last message received from a mailbox/queue (op::Recv/op::QueueRecv).
  std::uint64_t last_message = 0;

  /// Round-robin ordering key among equal priorities (rotated on slice
  /// expiry; smaller runs first).
  std::uint64_t order_key = 0;

  /// Statistics.
  std::uint64_t preemptions = 0;
  sim::Cycles blocked_cycles = 0;
  sim::Cycles blocked_since = 0;

  [[nodiscard]] bool runnable() const {
    return state == TaskState::kReady || state == TaskState::kRunning;
  }
  [[nodiscard]] bool done() const { return state == TaskState::kFinished; }
  [[nodiscard]] sim::Cycles turnaround() const {
    return finished_at == sim::kNeverCycles ? 0 : finished_at - release_time;
  }
  [[nodiscard]] bool missed_deadline() const {
    return deadline != 0 && finished_at != sim::kNeverCycles &&
           turnaround() > deadline;
  }
};

}  // namespace delta::rtos
