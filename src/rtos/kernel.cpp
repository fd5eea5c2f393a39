// The delta RTOS kernel: member definitions (see kernel.h).
#include "rtos/kernel.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "rag/reduce_planes.h"

namespace delta::rtos {

namespace {
// Test&set retry cadence of a short-CS spin lock (docs/CALIBRATION.md).
constexpr sim::Cycles kSpinPollInterval = 12;
}  // namespace

const char* task_state_name(TaskState s) {
  switch (s) {
    case TaskState::kNotStarted: return "not-started";
    case TaskState::kReady: return "ready";
    case TaskState::kRunning: return "running";
    case TaskState::kBlocked: return "blocked";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kFinished: return "finished";
  }
  return "?";
}

Kernel::Kernel(
    sim::Simulator& sim, bus::SharedBus& bus, KernelConfig cfg,
    std::unique_ptr<DeadlockStrategy> strategy,
    std::unique_ptr<LockBackend> locks, std::unique_ptr<MemoryBackend> memory)
    : sim_(sim),
      bus_(bus),
      cfg_(std::move(cfg)),
      strategy_(std::move(strategy)),
      locks_(std::move(locks)),
      memory_(std::move(memory)),
      devices_(sim, std::max<std::size_t>(cfg_.resource_count, 1),
               std::max<std::size_t>(cfg_.pe_count, 1)) {
  if (cfg_.pe_count == 0) throw std::invalid_argument("Kernel: zero PEs");
  if (!strategy_ || !locks_ || !memory_)
    throw std::invalid_argument("Kernel: missing backend");
  cost_table_ = ServiceCostTable::build(cfg_.costs, *locks_, *memory_);
  running_.assign(cfg_.pe_count, kNoTask);
  in_service_.assign(cfg_.pe_count, false);
  ready_count_.assign(cfg_.pe_count, 0);
  if (cfg_.resource_names.size() < cfg_.resource_count) {
    for (std::size_t i = cfg_.resource_names.size();
         i < cfg_.resource_count; ++i)
      cfg_.resource_names.push_back("q" + std::to_string(i + 1));
  }
  own_obs_ = std::make_unique<obs::Observer>();
  set_observer(own_obs_.get());
  if (!cfg_.claims.empty()) strategy_->set_claims(cfg_.claims);
}

void Kernel::set_observer(obs::Observer* o) {
  obs_ = o != nullptr ? o : own_obs_.get();
  obs::MetricsRegistry& m = obs_->metrics;
  lock_latency_ = &m.histogram("lock.latency");
  lock_delay_ = &m.histogram("lock.delay");
  alloc_latency_ = &m.histogram("mem.alloc_latency");
  ctr_ctx_switches_ = &m.counter("kernel.context_switches");
  ctr_preemptions_ = &m.counter("kernel.preemptions");
  ctr_lock_acquires_ = &m.counter("lock.acquires");
  ctr_lock_releases_ = &m.counter("lock.releases");
  ctr_lock_contended_ = &m.counter("lock.contended");
  ctr_lock_spins_ = &m.counter("lock.spins");
  ctr_dl_requests_ = &m.counter("deadlock.requests");
  ctr_dl_releases_ = &m.counter("deadlock.releases");
  ctr_allocs_ = &m.counter("mem.allocs");
  ctr_alloc_failures_ = &m.counter("mem.alloc_failures");
  ctr_frees_ = &m.counter("mem.frees");
  strategy_->attach_observer(obs_);
  locks_->attach_observer(obs_);
  memory_->attach_observer(obs_);
}

void Kernel::set_state(TaskId id, TaskState to) {
  Task& t = task(id);
  // Every state change funnels through here, which is what keeps the
  // per-PE ready counts exact for the scheduler fast-outs.
  if (t.state == TaskState::kReady) --ready_count_[t.pe];
  if (to == TaskState::kReady) ++ready_count_[t.pe];
  t.state = to;
  if (cfg_.record_transitions)
    transitions_.push_back(StateTransition{sim_.now(), id, to});
}

// ---------------------------------------------------------------- tasks --

TaskId Kernel::create_task(std::string name, PeId pe, Priority priority,
                           Program program, sim::Cycles release_time) {
  if (pe >= cfg_.pe_count)
    throw std::invalid_argument(
        "create_task: PE index " + std::to_string(pe) +
        " out of range (configured pe_count is " +
        std::to_string(cfg_.pe_count) + ")");
  if (tasks_.size() >= cfg_.max_tasks)
    throw std::invalid_argument(
        "create_task: task table full (task " +
        std::to_string(tasks_.size()) +
        " exceeds configured max_tasks of " +
        std::to_string(cfg_.max_tasks) + ")");
  auto t = std::make_unique<Task>();
  t->id = tasks_.size();
  t->name = std::move(name);
  t->pe = pe;
  t->base_priority = priority;
  t->priority = priority;
  t->program = std::move(program);
  t->release_time = release_time;
  t->order_key = t->id;
  strategy_->set_priority(t->id, priority);
  tasks_.push_back(std::move(t));
  // Grow the TaskId-indexed bookkeeping arrays in lockstep.
  waiting_lock_.push_back(kNoLock);
  pending_lock_grant_.push_back(kNoLock);
  lock_requested_at_.push_back(sim::kNeverCycles);
  ceiling_stack_.emplace_back();
  held_locks_.emplace_back();
  queue_send_payload_.push_back(0);
  return tasks_.back()->id;
}

TaskId Kernel::create_periodic_task(
    std::string name, PeId pe, Priority priority, Program program,
    sim::Cycles period, std::uint32_t activations, sim::Cycles first_release) {
  if (period == 0 || activations == 0)
    throw std::invalid_argument(
        "create_periodic_task: period and activations must be positive");
  const TaskId id = create_task(std::move(name), pe, priority,
                                std::move(program), first_release);
  Task& t = task(id);
  t.period = period;
  t.activations_left = activations;
  return id;
}

void Kernel::change_priority(TaskId id, Priority priority) {
  Task& t = task(id);
  t.base_priority = priority;
  strategy_->set_priority(id, priority);
  // Re-derive the effective priority, preserving inheritance/ceilings.
  if (locks_->provides_ceiling()) {
    // Inside a ceiling section the ceiling-derived effective priority
    // stays dominant; otherwise the new base applies directly.
    t.priority = ceiling_stack_[id].empty()
                     ? priority
                     : std::min(priority, t.priority);
  } else {
    recompute_inherited_priority(id);
  }
  trace("RTOS", [&] {
    return t.name + " priority changed to " + std::to_string(priority);
  });
  reschedule(t.pe);
}

void Kernel::suspend(TaskId id) {
  Task& t = task(id);
  if (t.state == TaskState::kFinished) return;
  if (t.state == TaskState::kRunning) {
    // Stop a pending compute; remember the remainder.
    if (t.compute_armed) {
      sim_.cancel(t.compute_event);
      t.compute_armed = false;
      t.compute_left = t.compute_done_at - sim_.now();
    }
    running_[t.pe] = kNoTask;
  }
  set_state(id, TaskState::kSuspended);
  trace("RTOS", [&] { return t.name + " suspended"; });
  reschedule(t.pe);
}

void Kernel::resume(TaskId id) {
  Task& t = task(id);
  if (t.state != TaskState::kSuspended) return;
  set_state(id, TaskState::kReady);
  trace("RTOS", [&] { return t.name + " resumed"; });
  reschedule(t.pe);
}

// ------------------------------------------------------------------ IPC --

SemId Kernel::create_semaphore(std::int64_t initial) {
  semaphores_.push_back(Semaphore{initial, {}});
  return semaphores_.size() - 1;
}

MailboxId Kernel::create_mailbox() {
  mailboxes_.emplace_back();
  return mailboxes_.size() - 1;
}

QueueId Kernel::create_queue(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("queue capacity zero");
  MessageQueue q;
  q.capacity = capacity;
  queues_.push_back(std::move(q));
  return queues_.size() - 1;
}

EventGroupId Kernel::create_event_group() {
  event_groups_.emplace_back();
  return event_groups_.size() - 1;
}

// ------------------------------------------------------------------ run --

void Kernel::start() {
  for (const auto& tp : tasks_) {
    const TaskId id = tp->id;
    sim_.schedule_at(tp->release_time, [this, id] {
      Task& t = task(id);
      if (t.state != TaskState::kNotStarted) return;
      set_state(id, TaskState::kReady);
      t.started_at = sim_.now();
      trace("RTOS", [&] { return t.name + " released"; });
      reschedule(t.pe);
    });
  }
  if (cfg_.detection_period > 0) schedule_scan();
}

void Kernel::schedule_scan() {
  sim_.schedule_in(cfg_.detection_period, [this] {
    // Stop re-arming once the run is over, or the simulator never goes
    // idle: a halted system and a finished one both end the scan chain.
    if (halted_ || all_finished()) return;
    const sim::Cycles now = sim_.now();
    const ResourceEvent ev = strategy_->scan(now);
    // The scan executes inside the resource-manager critical section:
    // concurrent resource services queue behind its software cost.
    resmgr_lock_until_ = std::max(resmgr_lock_until_, now + ev.pe_cycles);
    if (ev.deadlock_detected)
      trace("WFG", [&] {
        return "periodic scan found a wait-for cycle";
      });
    note_detection(ev, now);
    if (!halted_) schedule_scan();
  });
}

bool Kernel::all_finished() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const auto& t) { return t->done(); });
}

std::size_t Kernel::deadline_misses() const {
  std::size_t misses = 0;
  for (const auto& t : tasks_) {
    if (t->period > 0)
      misses += t->deadline_miss_count;
    else if (t->missed_deadline())
      ++misses;
  }
  return misses;
}

sim::Cycles Kernel::last_finish_time() const {
  sim::Cycles last = 0;
  for (const auto& t : tasks_)
    if (t->finished_at != sim::kNeverCycles)
      last = std::max(last, t->finished_at);
  return last;
}

// ------------------------------------------------------------ scheduler --

void Kernel::reschedule(PeId pe) {
  if (halted_) return;
  if (engine_ != nullptr) {
    ++engine_->resched_calls;
    if (in_service_[pe]) ++engine_->resched_fastout_in_service;
    else if (ready_count_[pe] == 0) ++engine_->resched_fastout_idle;
    else ++engine_->resched_scans;
  }
  if (in_service_[pe]) return;  // service completion re-enters here
  // Nothing ready on this PE: no arbitration can change anything. This
  // is the dominant case (most reschedules fire on busy PEs whose peers
  // are blocked), so it skips the task-table scan entirely.
  std::uint32_t remaining = ready_count_[pe];
  if (remaining == 0) return;

  // Highest-priority ready task pinned to this PE; stop once every ready
  // task has been seen.
  TaskId best = kNoTask;
  for (const auto& tp : tasks_) {
    if (tp->pe != pe || tp->state != TaskState::kReady) continue;
    if (best == kNoTask) {
      best = tp->id;
    } else {
      const Task& b = task(best);
      if (tp->priority < b.priority ||
          (tp->priority == b.priority && tp->order_key < b.order_key))
        best = tp->id;
    }
    if (--remaining == 0) break;
  }

  const TaskId cur = running_[pe];
  if (cur != kNoTask) {
    Task& c = task(cur);
    if (best == kNoTask || task(best).priority >= c.priority) return;
    // Preempt the running task (it must be in a preemptible compute).
    if (!c.compute_armed) return;  // between ops; let it settle
    sim_.cancel(c.compute_event);
    c.compute_armed = false;
    c.compute_left = c.compute_done_at - sim_.now();
    set_state(cur, TaskState::kReady);
    ++c.preemptions;
    ctr_preemptions_->add();
    running_[pe] = kNoTask;
    trace("RTOS", [&] {
      return c.name + " preempted by " + task(best).name;
    });
  }
  if (best == kNoTask) return;
  dispatch(pe, best);
}

void Kernel::dispatch(PeId pe, TaskId id) {
  Task& t = task(id);
  assert(t.state == TaskState::kReady);
  running_[pe] = id;
  set_state(id, TaskState::kRunning);
  ctr_ctx_switches_->add();
  obs_->trace.record(obs::EventKind::kContextSwitch,
                     static_cast<std::uint16_t>(pe), sim_.now(),
                     cost_table_.context_switch, id);
  const std::uint64_t gen = ++t.gen;
  auto switch_done = [this, pe, id, gen] {
    if (halted_) return;
    if (running_[pe] != id || task(id).gen != gen) return;  // stale
    Task& t = task(id);
    if (t.state != TaskState::kRunning) return;
    // A higher-priority task may have arrived during the switch window;
    // yield to it before executing anything.
    if (ready_count_[pe] > 0) {
      for (const auto& tp : tasks_) {
        if (tp->pe == pe && tp->state == TaskState::kReady &&
            tp->priority < t.priority) {
          set_state(id, TaskState::kReady);
          running_[pe] = kNoTask;
          reschedule(pe);
          return;
        }
      }
    }
    step_task(id);
  };
  static_assert(sim::SmallFn::fits_inline_v<decltype(switch_done)>,
                "context-switch completion must stay inline in SmallFn");
  sim_.schedule_in(cost_table_.context_switch, std::move(switch_done));
  arm_time_slice(pe);
}

void Kernel::arm_time_slice(PeId pe) {
  if (cfg_.time_slice == 0) return;
  const TaskId id = running_[pe];
  if (id == kNoTask) return;
  const std::uint64_t gen = task(id).gen;
  sim_.schedule_in(cfg_.time_slice, [this, pe, id, gen] {
    if (halted_) return;
    if (running_[pe] != id || task(id).gen != gen) return;
    Task& c = task(id);
    if (c.state != TaskState::kRunning) return;
    // Rotate only when an equal-priority peer is ready.
    bool peer = false;
    if (ready_count_[pe] > 0)
      for (const auto& tp : tasks_)
        peer |= (tp->pe == pe && tp->state == TaskState::kReady &&
                 tp->priority == c.priority);
    if (!peer) {
      arm_time_slice(pe);
      return;
    }
    if (!c.compute_armed) {
      arm_time_slice(pe);  // in a service; try next slice
      return;
    }
    sim_.cancel(c.compute_event);
    c.compute_armed = false;
    c.compute_left = c.compute_done_at - sim_.now();
    set_state(id, TaskState::kReady);
    c.order_key = cfg_.max_tasks + (++sched_seq_);  // to the back
    ++c.preemptions;
    ctr_preemptions_->add();
    running_[pe] = kNoTask;
    trace("RTOS", [&] { return c.name + " time-sliced out"; });
    reschedule(pe);
  });
}

void Kernel::step_task(TaskId id) {
  if (halted_) return;
  Task& t = task(id);
  if (t.state != TaskState::kRunning) return;
  if (t.pc >= t.program.size()) {
    finish_task(id);
    return;
  }
  const op::Op& o = t.program.ops()[t.pc];
  std::visit(
      [&](const auto& concrete) {
        using T = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<T, op::Compute>) op_compute(t, concrete);
        else if constexpr (std::is_same_v<T, op::Request>) op_request(t, concrete);
        else if constexpr (std::is_same_v<T, op::Release>) op_release(t, concrete);
        else if constexpr (std::is_same_v<T, op::UseDevice>) op_use_device(t, concrete);
        else if constexpr (std::is_same_v<T, op::Lock>) op_lock(t, concrete);
        else if constexpr (std::is_same_v<T, op::Unlock>) op_unlock(t, concrete);
        else if constexpr (std::is_same_v<T, op::Alloc>) op_alloc(t, concrete);
        else if constexpr (std::is_same_v<T, op::AllocShared>) op_alloc_shared(t, concrete);
        else if constexpr (std::is_same_v<T, op::Free>) op_free(t, concrete);
        else if constexpr (std::is_same_v<T, op::SemWait>) op_sem_wait(t, concrete);
        else if constexpr (std::is_same_v<T, op::SemPost>) op_sem_post(t, concrete);
        else if constexpr (std::is_same_v<T, op::Send>) op_send(t, concrete);
        else if constexpr (std::is_same_v<T, op::Recv>) op_recv(t, concrete);
        else if constexpr (std::is_same_v<T, op::QueueSend>) op_queue_send(t, concrete);
        else if constexpr (std::is_same_v<T, op::QueueRecv>) op_queue_recv(t, concrete);
        else if constexpr (std::is_same_v<T, op::EventSet>) op_event_set(t, concrete);
        else if constexpr (std::is_same_v<T, op::EventWait>) op_event_wait(t, concrete);
        else if constexpr (std::is_same_v<T, op::Call>) {
          concrete.fn(*this, t);
          ++t.pc;
          step_task(id);
        }
      },
      o);
}

void Kernel::finish_task(TaskId id) {
  Task& t = task(id);
  running_[t.pe] = kNoTask;

  if (t.period > 0) {
    // One periodic activation completed.
    const sim::Cycles response = sim_.now() - t.release_time;
    ++t.activations_done;
    --t.activations_left;
    t.worst_response = std::max(t.worst_response, response);
    if (t.deadline != 0 && response > t.deadline) {
      ++t.deadline_miss_count;
      trace("RTOS", [&] {
        return t.name + " MISSED its deadline (" + std::to_string(response) +
               " > " + std::to_string(t.deadline) + ")";
      });
    }
    if (t.activations_left > 0) {
      // Re-arm for the next period; an overrunning activation releases
      // the next one back-to-back (and its lateness shows up as a miss).
      const sim::Cycles next =
          std::max(t.release_time + t.period, sim_.now());
      t.pc = 0;
      t.compute_left = 0;
      t.release_time = next;
      set_state(id, TaskState::kNotStarted);
      sim_.schedule_at(next, [this, id] {
        Task& tk = task(id);
        if (tk.state != TaskState::kNotStarted) return;
        set_state(id, TaskState::kReady);
        reschedule(tk.pe);
      });
      reschedule(t.pe);
      return;
    }
  }

  // Exit reclamation. A give-up can strip a running owner of a resource
  // and re-request it on its behalf; if the script then passes its
  // release (the resource is no longer held, so the release is a no-op)
  // the pending re-request would outlive the task — and a later grant
  // would park the resource on a finished task forever. Withdraw pending
  // requests and hand back anything still held, exactly as deadlock
  // recovery does.
  for (ResourceId res : FlatSet<ResourceId>(t.waiting_for))
    strategy_->cancel_request(id, res);
  t.waiting_for.clear();
  const FlatSet<ResourceId> held = t.held;
  for (ResourceId res : held) {
    t.held.erase(res);
    const ResourceEvent ev = strategy_->release(id, res, sim_.now());
    apply_resource_event(ev, res, sim_.now());
  }

  set_state(id, TaskState::kFinished);
  t.finished_at = sim_.now();
  trace("RTOS", [&] { return t.name + " finished"; });
  if (t.period == 0 && t.missed_deadline())
    trace("RTOS", [&] {
      return t.name + " MISSED its deadline (" +
             std::to_string(t.turnaround()) + " > " +
             std::to_string(t.deadline) + ")";
    });
  reschedule(t.pe);
}

void Kernel::block_task(TaskId id, WaitKind why, std::uint64_t object) {
  Task& t = task(id);
  record_wait_for(t, why, object);
  set_state(id, TaskState::kBlocked);
  t.wait_kind = why;
  t.blocked_since = sim_.now();
  if (running_[t.pe] == id) running_[t.pe] = kNoTask;
  reschedule(t.pe);
}

void Kernel::record_wait_for(const Task& t, WaitKind why,
                             std::uint64_t object) {
  if (!obs_->trace.enabled()) return;
  const auto pe16 = static_cast<std::uint16_t>(t.pe);
  const sim::Cycles now = sim_.now();
  auto emit = [&](obs::WaitObject kind, std::uint64_t obj, TaskId holder) {
    obs::WaitForInfo info;
    info.kind = kind;
    info.object = static_cast<std::uint32_t>(obj);
    if (holder != kNoTask) {
      info.has_holder = true;
      info.holder = static_cast<std::uint16_t>(holder);
    }
    obs_->trace.record(obs::EventKind::kWaitFor, pe16, now, 0, t.id,
                       obs::pack_wait_for(info));
  };
  switch (why) {
    case WaitKind::kResources:
      // One edge per awaited resource; single-unit resources have at
      // most one holder, found in the task table (id order, so the
      // trace stays deterministic).
      for (const ResourceId res : t.waiting_for) {
        TaskId holder = kNoTask;
        for (const auto& tp : tasks_) {
          if (tp->id != t.id && tp->held.count(res) != 0) {
            holder = tp->id;
            break;
          }
        }
        emit(obs::WaitObject::kResource, res, holder);
      }
      return;
    case WaitKind::kLock: {
      const LockId lk = waiting_lock_[t.id] != kNoLock
                            ? waiting_lock_[t.id]
                            : static_cast<LockId>(object);
      emit(obs::WaitObject::kLock, lk, locks_->owner(lk));
      return;
    }
    case WaitKind::kDevice:
      emit(obs::WaitObject::kDevice, object, kNoTask);
      return;
    case WaitKind::kSemaphore:
      emit(obs::WaitObject::kSemaphore, object, kNoTask);
      return;
    case WaitKind::kMailbox:
      emit(obs::WaitObject::kMailbox, object, kNoTask);
      return;
    case WaitKind::kQueue:
      emit(obs::WaitObject::kQueue, object, kNoTask);
      return;
    case WaitKind::kEvents:
      emit(obs::WaitObject::kEvent, object, kNoTask);
      return;
    default:
      emit(obs::WaitObject::kOther, object, kNoTask);
      return;
  }
}

void Kernel::wake_task(TaskId id) {
  Task& t = task(id);
  if (t.state != TaskState::kBlocked) return;
  t.blocked_cycles += sim_.now() - t.blocked_since;
  set_state(id, TaskState::kReady);
  t.wait_kind = WaitKind::kNone;
  reschedule(t.pe);
}

template <class F>
void Kernel::service(PeId pe, sim::Cycles cycles, F done) {
  // Every kernel service window funnels through here; the event is what
  // lets obs/critpath charge these cycles to the overhead bucket of the
  // task being serviced.
  if (engine_ != nullptr) {
    ++engine_->service_windows;
    engine_->service_window_cycles.add(cycles);
  }
  obs_->trace.record(obs::EventKind::kKernelService,
                     static_cast<std::uint16_t>(pe), sim_.now(), cycles,
                     running_[pe] == kNoTask ? ~std::uint64_t{0}
                                             : running_[pe]);
  in_service_[pe] = true;
  devices_.set_masked(pe, true);  // kernel services run interrupts-off
  auto completion = [this, pe, done = std::move(done)]() mutable {
    in_service_[pe] = false;
    if (halted_) return;
    done();
    devices_.set_masked(pe, false);  // pending interrupts deliver now
    reschedule(pe);
  };
  // Every kernel service continuation must stay inside SmallFn's inline
  // buffer: a capture that outgrows it would silently heap-allocate on
  // the hottest path in the simulator. Trim the caller's captures (see
  // op_alloc) rather than widening the buffer.
  static_assert(sim::SmallFn::fits_inline_v<decltype(completion)>,
                "kernel service continuation exceeds SmallFn's inline "
                "buffer and would heap-allocate per event");
  sim_.schedule_in(cycles, std::move(completion));
}

// ------------------------------------------------------------ compute --

void Kernel::op_compute(Task& t, const op::Compute& c) {
  const sim::Cycles cycles = t.compute_left ? t.compute_left : c.cycles;
  const TaskId id = t.id;
  t.compute_done_at = sim_.now() + cycles;
  t.compute_armed = true;
  auto compute_done = [this, id] {
    Task& tk = task(id);
    tk.compute_armed = false;
    if (tk.state != TaskState::kRunning) return;  // aborted meanwhile
    tk.compute_left = 0;
    ++tk.pc;
    step_task(id);
  };
  static_assert(sim::SmallFn::fits_inline_v<decltype(compute_done)>,
                "compute completion must stay inline in SmallFn");
  t.compute_event = sim_.schedule_in(cycles, std::move(compute_done));
}

// ---------------------------------------------------------- resources --

namespace kernel_detail {

/// Comma-joined resource-name list for request/release trace lines.
template <class Names>
std::string join_names(const std::vector<ResourceId>& rs,
                       const Names& name_of) {
  std::string out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i) out += ", ";
    out += name_of(rs[i]);
  }
  return out;
}

}  // namespace kernel_detail

void Kernel::op_request(Task& t, const op::Request& r) {
  const sim::Cycles now = sim_.now();
  const sim::Cycles start = std::max(now, resmgr_lock_until_);
  sim::Cycles cursor = start + cost_table_.resmgr_entry;

  trace("RTOS", [&] {
    return t.name + " requests " +
           kernel_detail::join_names(
               r.resources, [&](ResourceId x) { return resource_name(x); });
  });

  std::vector<std::pair<ResourceId, ResourceEvent>> events;
  events.reserve(r.resources.size());
  for (ResourceId res : r.resources) {
    ResourceEvent ev = strategy_->request(t.id, res, cursor);
    ctr_dl_requests_->add();
    obs_->trace.record(obs::EventKind::kDeadlockRequest,
                       static_cast<std::uint16_t>(t.pe), cursor,
                       ev.pe_cycles, res, ev.unit_cycles);
    cursor += ev.pe_cycles;
    events.emplace_back(res, ev);
  }
  resmgr_lock_until_ = cursor;

  const TaskId id = t.id;
  service(t.pe, cursor - now, [this, id, events = std::move(events)] {
    Task& tk = task(id);
    for (const auto& [res, ev] : events) {
      if (ev.granted) {
        tk.held.insert(res);
        trace("RM", [&] {
          return resource_name(res) + " granted to " + tk.name;
        });
      } else if (tk.held.count(res) != 0) {
        // Granted by another PE's release while this service was in
        // flight (grant_resource already updated the sets).
      } else if (ev.asked == id &&
                 std::find(ev.ask_give_up.begin(), ev.ask_give_up.end(),
                           res) == ev.ask_give_up.end()) {
        tk.waiting_for.insert(res);
      } else {
        tk.waiting_for.insert(res);
        trace("RM", [&] {
          return tk.name + " waits for " + resource_name(res);
        });
      }
      apply_resource_event(ev, res, sim_.now());
    }
    // A recovery triggered by one of these events may have aborted this
    // very task; it is already detached from the PE then.
    if (tk.state != TaskState::kRunning) return;
    if (tk.waiting_for.empty()) {
      ++tk.pc;
      step_task(id);
    } else {
      block_task(id, WaitKind::kResources);
    }
  });
}

void Kernel::op_release(Task& t, const op::Release& r) {
  const sim::Cycles now = sim_.now();
  const sim::Cycles start = std::max(now, resmgr_lock_until_);
  sim::Cycles cursor = start + cost_table_.resmgr_entry;

  trace("RTOS", [&] {
    return t.name + " releases " +
           kernel_detail::join_names(
               r.resources, [&](ResourceId x) { return resource_name(x); });
  });

  std::vector<std::pair<ResourceId, ResourceEvent>> events;
  events.reserve(r.resources.size());
  for (ResourceId res : r.resources) {
    if (t.held.erase(res) == 0) continue;  // not held (e.g. given up)
    ResourceEvent ev = strategy_->release(t.id, res, cursor);
    ctr_dl_releases_->add();
    obs_->trace.record(obs::EventKind::kDeadlockRelease,
                       static_cast<std::uint16_t>(t.pe), cursor,
                       ev.pe_cycles, res, ev.unit_cycles);
    cursor += ev.pe_cycles;
    events.emplace_back(res, ev);
  }
  resmgr_lock_until_ = cursor;

  const TaskId id = t.id;
  service(t.pe, cursor - now, [this, id, events = std::move(events)] {
    for (const auto& [res, ev] : events)
      apply_resource_event(ev, res, sim_.now());
    Task& tk = task(id);
    if (tk.state != TaskState::kRunning) return;  // aborted by recovery
    ++tk.pc;
    step_task(id);
  });
}

void Kernel::op_use_device(Task& t, const op::UseDevice& u) {
  const TaskId id = t.id;
  if (t.held.count(u.resource) == 0) {
    trace("DEV", [&] {
      return t.name + " tried to use " + resource_name(u.resource) +
             " without holding it";
    });
    ++t.pc;
    step_task(id);
    return;
  }
  // Start the job (one short kernel service), then block for the
  // completion interrupt; the PE runs other tasks meanwhile.
  const ResourceId dev = u.resource;
  const sim::Cycles cycles = u.cycles;
  service(t.pe, cost_table_.device_start, [this, id, dev, cycles] {
    Task& tk = task(id);
    trace("DEV", [&] {
      return tk.name + " starts a " + std::to_string(cycles) +
             "-cycle job on " + resource_name(dev);
    });
    devices_.start_job(dev, tk.pe, cycles, [this, id, dev] {
      if (halted_) return;
      Task& w = task(id);
      trace("DEV", [&] {
        return resource_name(dev) + " interrupt wakes " + w.name;
      });
      if (w.state == TaskState::kBlocked &&
          w.wait_kind == WaitKind::kDevice) {
        ++w.pc;
        wake_task(id);
      }
    });
    block_task(id, WaitKind::kDevice, dev);
  });
}

void Kernel::apply_resource_event(
    const ResourceEvent& ev, ResourceId res, sim::Cycles at) {
  for (const auto& [to, what] : ev.grants) grant_resource(to, what);
  if (ev.livelock) {
    starved_.insert(res);
    trace("RM", [&] {
      return "livelock detected on " + resource_name(res);
    });
  }
  if (ev.asked != kNoTask && !ev.ask_give_up.empty())
    schedule_give_up(ev.asked, ev.ask_give_up);
  note_detection(ev, at);
}

void Kernel::grant_resource(TaskId to, ResourceId res) {
  Task& t = task(to);
  if (t.state == TaskState::kFinished) {
    // The grantee finished while this grant was in flight (exit
    // reclamation cancels pending *requests*, but an arbitration that
    // already converted the request to a grant commits immediately in
    // the strategy). Hand the resource straight back so it cannot park
    // on a dead task; the release re-arbitrates among live waiters.
    const ResourceEvent ev = strategy_->release(to, res, sim_.now());
    apply_resource_event(ev, res, sim_.now());
    return;
  }
  t.held.insert(res);
  t.waiting_for.erase(res);
  trace("RM", [&] { return resource_name(res) + " granted to " + t.name; });
  maybe_wake_resource_waiter(to);
}

void Kernel::enable_engine_counters() {
  if (engine_ == nullptr) engine_ = std::make_unique<EngineCounters>();
}

EngineCounters Kernel::engine_counters_snapshot() const {
  EngineCounters c;
  if (engine_ != nullptr) {
    c = *engine_;
    if (giveup_episode_len_ != 0) {
      ++c.give_up_episodes;
      c.give_up_episode_len.add(giveup_episode_len_);
    }
  }
  return c;
}

void Kernel::note_give_up(TaskId victim, std::size_t resources) {
  EngineCounters& c = *engine_;
  ++c.give_up_events;
  c.give_up_resources += resources;
  if (victim == giveup_episode_victim_) {
    ++giveup_episode_len_;
  } else {
    if (giveup_episode_len_ != 0) {
      ++c.give_up_episodes;
      c.give_up_episode_len.add(giveup_episode_len_);
    }
    giveup_episode_victim_ = victim;
    giveup_episode_len_ = 1;
  }
}

void Kernel::maybe_wake_resource_waiter(TaskId id) {
  Task& t = task(id);
  if (t.state == TaskState::kBlocked && t.wait_kind == WaitKind::kResources &&
      t.waiting_for.empty()) {
    ++t.pc;  // past the Request op that blocked it
    wake_task(id);
  }
}

void Kernel::schedule_give_up(TaskId victim, std::vector<ResourceId> rs) {
  // A demand equal to the victim's latest one still in flight adds
  // nothing: that one complies first (the delay is fixed) and gives up
  // the same resources. Every compliance retries all livelock-idled
  // resources, and a retry that re-livelocks asks the same victim again;
  // when a compliance releases nothing (the victim's grant is still
  // inside an in-flight service window), one new demand per retry would
  // double the pending events every give_up_delay.
  Task& v = task(victim);
  if (v.give_ups_in_flight != 0 && v.last_give_up == rs) return;
  ++v.give_ups_in_flight;
  v.last_give_up = rs;
  if (engine_ != nullptr) note_give_up(victim, rs.size());
  trace("RM", [&] {
    return "asking " + v.name + " to give up " +
           kernel_detail::join_names(
               rs, [&](ResourceId x) { return resource_name(x); });
  });

  sim_.schedule_in(cost_table_.give_up_delay, [this, victim,
                                               rs = std::move(rs)] {
    Task& v = task(victim);
    --v.give_ups_in_flight;
    if (halted_) return;
    std::vector<ResourceId> released;
    sim::Cycles cursor = sim_.now();
    for (ResourceId res : rs) {
      if (v.held.erase(res) == 0) continue;
      trace("RM", [&] {
        return v.name + " gives up " + resource_name(res);
      });
      ResourceEvent ev = strategy_->release(victim, res, cursor);
      cursor += ev.pe_cycles;
      apply_resource_event(ev, res, sim_.now());
      released.push_back(res);
    }
    // The victim still needs what it gave up: re-request immediately.
    for (ResourceId res : released) {
      ResourceEvent ev = strategy_->request(victim, res, cursor);
      cursor += ev.pe_cycles;
      if (ev.granted) {
        grant_resource(victim, res);
      } else {
        v.waiting_for.insert(res);
        trace("RM", [&] {
          return v.name + " re-requests " + resource_name(res);
        });
      }
      apply_resource_event(ev, res, sim_.now());
    }
    // Any livelock-idled resource can now be retried.
    const FlatSet<ResourceId> starved = starved_;
    for (ResourceId res : starved) {
      starved_.erase(res);
      ResourceEvent ev = strategy_->retry(res, cursor);
      cursor += ev.pe_cycles;
      apply_resource_event(ev, res, sim_.now());
    }
    maybe_wake_resource_waiter(victim);
  });
}

void Kernel::note_detection(const ResourceEvent& ev, sim::Cycles at) {
  if (!ev.deadlock_detected) return;
  if (!deadlock_detected_) {
    deadlock_detected_ = true;
    deadlock_time_ = at;
  }
  trace("RM", [] { return "deadlock detected"; });
  if (cfg_.recovery != RecoveryPolicy::kNone) {
    recover_from_deadlock();
    return;
  }
  if (cfg_.stop_on_deadlock) halted_ = true;
}

TaskId Kernel::pick_recovery_victim() const {
  const rag::StateMatrix* st = strategy_->state();
  if (st == nullptr) return kNoTask;
  // Recovery is rare, so the reduction's scratch is local.
  rag::ReduceScratch scratch;
  const rag::PlaneReduction involved = rag::reduce_planes(*st, scratch);
  TaskId victim = kNoTask;
  rag::for_each_set_bit(involved.live_cols, [&](rag::ProcId p) {
    if (p >= tasks_.size()) return;
    const Task& cand = task(p);
    if (victim == kNoTask) {
      victim = p;
      return;
    }
    const Task& best = task(victim);
    bool worse = false;
    switch (cfg_.recovery) {
      case RecoveryPolicy::kNone:
        break;
      case RecoveryPolicy::kAbortLowestPriority:
        worse = cand.priority > best.priority;
        break;
      case RecoveryPolicy::kAbortYoungest:
        worse = cand.release_time > best.release_time;
        break;
      case RecoveryPolicy::kAbortLowestCost: {
        // Least work to redo: fewest completed ops, then fewest held
        // resources to unwind (ties keep the lower task id). Prior
        // rollbacks dominate the cost: a restarted task sits at pc=0 and
        // would otherwise be re-picked at every detection while the task
        // whose release actually breaks the knot is never chosen
        // (classical victim-selection starvation).
        const std::uint64_t cr = restarts(p);
        const std::uint64_t br = restarts(victim);
        worse = cr < br ||
                (cr == br &&
                 (cand.pc < best.pc ||
                  (cand.pc == best.pc &&
                   cand.held.size() < best.held.size())));
        break;
      }
    }
    if (worse) victim = p;
  });
  return victim;
}

void Kernel::recover_from_deadlock() {
  const TaskId victim = pick_recovery_victim();
  if (victim == kNoTask) return;
  Task& v = task(victim);
  ++recoveries_;
  ++restarts_[victim];
  trace("RM", [&] {
    return "recovery: aborting " + v.name + " and restarting it";
  });

  // Detach the victim from its PE: it may be aborted mid-compute or even
  // mid-service (its own request can be the deadlocking event). Stale
  // dispatch/slice events are invalidated through the generation counter,
  // and in-flight service continuations bail out on the state check.
  if (v.compute_armed) {
    sim_.cancel(v.compute_event);
    v.compute_armed = false;
  }
  if (running_[v.pe] == victim) running_[v.pe] = kNoTask;
  ++v.gen;

  // Withdraw pending requests, then force-release everything held. The
  // releases re-grant to waiters through the normal strategy path, which
  // breaks the cycle; recursion is impossible because detection on a
  // shrinking edge set cannot re-introduce the cycle.
  for (ResourceId res : FlatSet<ResourceId>(v.waiting_for)) {
    strategy_->cancel_request(victim, res);
  }
  v.waiting_for.clear();
  const FlatSet<ResourceId> held = v.held;
  for (ResourceId res : held) {
    v.held.erase(res);
    const ResourceEvent ev = strategy_->release(victim, res, sim_.now());
    for (const auto& [to, what] : ev.grants) grant_resource(to, what);
  }

  // Surrender every lock the victim holds (hand-off as in op_unlock) and
  // abandon any lock wait, so lock state cannot leak across the restart.
  if (waiting_lock_[victim] != kNoLock) {
    locks_->cancel_wait(waiting_lock_[victim], victim);
    waiting_lock_[victim] = kNoLock;
  }
  const FlatSet<LockId> held_locks = held_locks_[victim];
  for (LockId lk : held_locks) force_unlock(victim, lk);
  ceiling_stack_[victim].clear();
  v.priority = v.base_priority;

  // Restart the victim from the top of its program after a back-off (it
  // must redo the work it lost).
  v.pc = 0;
  v.compute_left = 0;
  v.allocations.clear();
  if (v.state == TaskState::kBlocked) {
    v.blocked_cycles += sim_.now() - v.blocked_since;
  }
  set_state(victim, TaskState::kNotStarted);
  sim_.schedule_in(cost_table_.recovery_backoff, [this, victim] {
    Task& t = task(victim);
    if (t.state != TaskState::kNotStarted) return;
    set_state(victim, TaskState::kReady);
    trace("RTOS", [&] { return t.name + " restarted after recovery"; });
    reschedule(t.pe);
  });
}

// ---------------------------------------------------------------- locks --

void Kernel::op_lock(Task& t, const op::Lock& l) {
  const TaskId id = t.id;
  const LockId lk = l.lock;
  lock_requested_at_[id] = sim_.now();
  ctr_lock_acquires_->add();
  const LockAcquire res = locks_->acquire(lk, id, t.priority);
  const sim::Cycles total = cost_table_.kernel_entry + res.cycles;
  service(t.pe, total, [this, id, lk, res, total] {
    Task& tk = task(id);
    if (res.granted) {
      held_locks_[id].insert(lk);
      if (res.ceiling) {
        ceiling_stack_[id].push_back({lk, tk.priority});
        tk.priority = std::min(tk.priority, *res.ceiling);
      }
      lock_latency_->add(static_cast<double>(total));
      obs_->trace.record(obs::EventKind::kLockAcquire,
                         static_cast<std::uint16_t>(tk.pe),
                         sim_.now() - total, total, lk, 0);
      trace("LOCK", [&] {
        return tk.name + " acquired lock " + std::to_string(lk);
      });
      ++tk.pc;
      step_task(id);
      return;
    }
    ctr_lock_contended_->add();
    // The lock may have been handed to us while this service was still
    // in flight (a release on another PE); consume that grant.
    if (pending_lock_grant_[id] == lk) {
      pending_lock_grant_[id] = kNoLock;
      obs_->trace.record(obs::EventKind::kLockAcquire,
                         static_cast<std::uint16_t>(tk.pe),
                         sim_.now() - total, total, lk, 1);
      trace("LOCK", [&] {
        return tk.name + " acquired lock " + std::to_string(lk) +
               " (handed during acquire)";
      });
      ++tk.pc;
      step_task(id);
      return;
    }
    if (cfg_.spin_short_locks && locks_->is_short(lk)) {
      trace("LOCK", [&] {
        return tk.name + " spins on lock " + std::to_string(lk);
      });
      spin_on_lock(id, lk);
      return;
    }
    trace("LOCK", [&] {
      return tk.name + " blocks on lock " + std::to_string(lk);
    });
    if (!locks_->provides_ceiling())
      boost_owner_chain(locks_->owner(lk), tk.priority);
    waiting_lock_[id] = lk;
    block_task(id, WaitKind::kLock, lk);
  });
}

void Kernel::op_unlock(Task& t, const op::Unlock& u) {
  const TaskId id = t.id;
  const LockId lk = u.lock;
  const LockRelease res = locks_->release(lk, id);
  held_locks_[id].erase(lk);
  // Restore this task's priority.
  if (locks_->provides_ceiling()) {
    auto& stack = ceiling_stack_[id];
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->first == lk) {
        t.priority = it->second;
        stack.erase(std::next(it).base());
        break;
      }
    }
  } else {
    recompute_inherited_priority(id);
  }
  const sim::Cycles total = cost_table_.kernel_entry + res.cycles;
  service(t.pe, total, [this, id, lk, res] {
    Task& tk = task(id);
    ctr_lock_releases_->add();
    obs_->trace.record(obs::EventKind::kLockRelease,
                       static_cast<std::uint16_t>(tk.pe), sim_.now(), 0,
                       lk);
    trace("LOCK", [&] {
      return tk.name + " released lock " + std::to_string(lk);
    });
    if (res.next != kNoTask) {
      Task& nx = task(res.next);
      held_locks_[res.next].insert(lk);
      waiting_lock_[res.next] = kNoLock;
      if (res.ceiling) {
        ceiling_stack_[res.next].push_back({lk, nx.priority});
        nx.priority = std::min(nx.priority, *res.ceiling);
      }
      const sim::Cycles asked_at = lock_requested_at_[res.next];
      if (asked_at != sim::kNeverCycles) {
        lock_delay_->add(static_cast<double>(sim_.now() - asked_at));
        obs_->trace.record(obs::EventKind::kLockAcquire,
                           static_cast<std::uint16_t>(nx.pe), asked_at,
                           sim_.now() - asked_at, lk, 1);
      }
      trace("LOCK", [&] {
        return "lock " + std::to_string(lk) + " handed to " + nx.name;
      });
      if (nx.state == TaskState::kBlocked &&
          nx.wait_kind == WaitKind::kLock) {
        ++nx.pc;  // past the Lock op it blocked on
        wake_task(res.next);
      } else {
        // Its acquire service is still in flight; let the completion
        // handler consume the grant.
        pending_lock_grant_[res.next] = lk;
      }
    }
    ++tk.pc;
    step_task(id);
  });
}

void Kernel::spin_on_lock(TaskId id, LockId lk) {
  Task& t = task(id);
  const PeId pe = t.pe;
  // The spinner owns its PE for the duration (short CSes are bounded, and
  // the spin protocol runs with preemption off).
  in_service_[pe] = true;
  // One poll now; the hand-off is observed on a subsequent poll.
  if (pending_lock_grant_[id] == lk) {
    pending_lock_grant_[id] = kNoLock;
    in_service_[pe] = false;
    Task& tk = task(id);
    // The delay sample was taken at hand-off time in op_unlock.
    trace("LOCK", [&] {
      return tk.name + " acquired lock " + std::to_string(lk) + " (spin)";
    });
    ++tk.pc;
    step_task(id);
    reschedule(pe);
    return;
  }
  // Poll traffic: a software spin lock re-reads the lock word in shared
  // memory; the SoCLC is polled off the memory bus.
  ctr_lock_spins_->add();
  // The poll burns the PE until the next poll fires, so the event spans
  // the full interval — spin windows then tile exactly, which is what
  // lets obs/critpath count spin cycles without estimation.
  obs_->trace.record(obs::EventKind::kLockSpin,
                     static_cast<std::uint16_t>(pe), sim_.now(),
                     kSpinPollInterval, lk);
  const std::size_t words = locks_->spin_poll_bus_words();
  if (words > 0) bus_.transfer(pe, sim_.now(), words);
  sim_.schedule_in(kSpinPollInterval, [this, id, lk] {
    if (halted_) return;
    spin_on_lock(id, lk);
  });
}

void Kernel::boost_owner_chain(TaskId owner, Priority prio) {
  // Transitive priority inheritance along the blocking chain.
  for (int hops = 0; owner != kNoTask && hops < 64; ++hops) {
    Task& o = task(owner);
    if (o.priority <= prio) return;
    o.priority = prio;
    trace("LOCK", [&] {
      return o.name + " inherits priority " + std::to_string(prio);
    });
    if (o.state == TaskState::kReady) reschedule(o.pe);
    if (waiting_lock_[owner] == kNoLock) return;
    owner = locks_->owner(waiting_lock_[owner]);
  }
}

void Kernel::force_unlock(TaskId id, LockId lk) {
  const LockRelease res = locks_->release(lk, id);
  held_locks_[id].erase(lk);
  ctr_lock_releases_->add();
  obs_->trace.record(obs::EventKind::kLockRelease,
                     static_cast<std::uint16_t>(task(id).pe), sim_.now(),
                     0, lk);
  if (res.next != kNoTask) {
    Task& nx = task(res.next);
    held_locks_[res.next].insert(lk);
    waiting_lock_[res.next] = kNoLock;
    if (res.ceiling) {
      ceiling_stack_[res.next].push_back({lk, nx.priority});
      nx.priority = std::min(nx.priority, *res.ceiling);
    }
    const sim::Cycles asked_at = lock_requested_at_[res.next];
    if (asked_at != sim::kNeverCycles) {
      lock_delay_->add(static_cast<double>(sim_.now() - asked_at));
      obs_->trace.record(obs::EventKind::kLockAcquire,
                         static_cast<std::uint16_t>(nx.pe), asked_at,
                         sim_.now() - asked_at, lk, 1);
    }
    trace("LOCK", [&] {
      return "lock " + std::to_string(lk) + " handed to " + nx.name;
    });
    if (nx.state == TaskState::kBlocked && nx.wait_kind == WaitKind::kLock) {
      ++nx.pc;
      wake_task(res.next);
    } else {
      pending_lock_grant_[res.next] = lk;
    }
  }
}

void Kernel::recompute_inherited_priority(TaskId id) {
  Task& t = task(id);
  Priority eff = t.base_priority;
  for (LockId lk : held_locks_[id]) {
    const auto top = locks_->top_waiter(lk);
    if (top) eff = std::min(eff, *top);
  }
  t.priority = eff;
}

// --------------------------------------------------------------- memory --

void Kernel::op_alloc(Task& t, const op::Alloc& a) {
  const TaskId id = t.id;
  const MemResult res = memory_->alloc(t.pe, a.bytes, sim_.now());
  alloc_latency_->add(static_cast<double>(res.pe_cycles));
  ctr_allocs_->add();
  if (!res.ok) ctr_alloc_failures_->add();
  obs_->trace.record(obs::EventKind::kAlloc,
                     static_cast<std::uint16_t>(t.pe), sim_.now(),
                     cost_table_.kernel_entry + res.pe_cycles, a.bytes, 0);
  // Capture only the result fields the continuation reads: the whole
  // MemResult would push the service closure past SmallFn's inline
  // buffer and onto the heap. The slot name is captured by pointer — op
  // storage is owned by the task's Program and outlives the event.
  service(t.pe, cost_table_.kernel_entry + res.pe_cycles,
          [this, id, slot = &a.slot, ok = res.ok, addr = res.addr] {
            Task& tk = task(id);
            if (ok) {
              tk.allocations[*slot] = addr;
            } else {
              trace("MEM", [&] {
                return tk.name + " allocation failed for " + *slot;
              });
            }
            ++tk.pc;
            step_task(id);
          });
}

void Kernel::op_alloc_shared(Task& t, const op::AllocShared& a) {
  const TaskId id = t.id;
  const MemResult res =
      memory_->alloc_shared(t.pe, a.region, a.bytes, a.writable, sim_.now());
  alloc_latency_->add(static_cast<double>(res.pe_cycles));
  ctr_allocs_->add();
  if (!res.ok) ctr_alloc_failures_->add();
  obs_->trace.record(obs::EventKind::kAlloc,
                     static_cast<std::uint16_t>(t.pe), sim_.now(),
                     cost_table_.kernel_entry + res.pe_cycles, a.bytes, 1);
  service(t.pe, cost_table_.kernel_entry + res.pe_cycles,
          [this, id, slot = &a.slot, ok = res.ok, addr = res.addr] {
            Task& tk = task(id);
            if (ok) {
              tk.allocations[*slot] = addr;
              trace("MEM", [&] {
                return tk.name + " mapped shared region into " + *slot;
              });
            } else {
              trace("MEM", [&] {
                return tk.name + " shared allocation failed for " + *slot;
              });
            }
            ++tk.pc;
            step_task(id);
          });
}

void Kernel::op_free(Task& t, const op::Free& f) {
  const TaskId id = t.id;
  const auto it = t.allocations.find(f.slot);
  if (it == t.allocations.end()) {
    trace("MEM", [&] { return t.name + " frees unknown slot " + f.slot; });
    ++t.pc;
    step_task(id);
    return;
  }
  const MemResult res = memory_->free(t.pe, it->second, sim_.now());
  alloc_latency_->add(static_cast<double>(res.pe_cycles));
  ctr_frees_->add();
  obs_->trace.record(obs::EventKind::kFree,
                     static_cast<std::uint16_t>(t.pe), sim_.now(),
                     cost_table_.kernel_entry + res.pe_cycles, it->second);
  t.allocations.erase(it);
  service(t.pe, cost_table_.kernel_entry + res.pe_cycles, [this, id] {
    Task& tk = task(id);
    ++tk.pc;
    step_task(id);
  });
}

// ------------------------------------------------------------------ IPC --

void Kernel::op_sem_wait(Task& t, const op::SemWait& s) {
  const TaskId id = t.id;
  const SemId sem = s.sem;
  service(t.pe, cost_table_.sem_op,
          [this, id, sem] {
            Task& tk = task(id);
            Semaphore& sm = semaphores_.at(sem);
            if (sm.count > 0) {
              --sm.count;
              ++tk.pc;
              step_task(id);
            } else {
              sm.waiters.add(id, tk.priority);
              block_task(id, WaitKind::kSemaphore, sem);
            }
          });
}

void Kernel::op_sem_post(Task& t, const op::SemPost& s) {
  const TaskId id = t.id;
  const SemId sem = s.sem;
  service(t.pe, cost_table_.sem_op,
          [this, id, sem] {
            Semaphore& sm = semaphores_.at(sem);
            const TaskId next = sm.waiters.pop();
            if (next != kNoTask) {
              // Direct hand-off: the count is consumed by the waiter.
              Task& nx = task(next);
              ++nx.pc;
              wake_task(next);
            } else {
              ++sm.count;
            }
            Task& tk = task(id);
            ++tk.pc;
            step_task(id);
          });
}

void Kernel::op_send(Task& t, const op::Send& s) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.mailbox_op,
          [this, id, s] {
            Mailbox& mb = mailboxes_.at(s.box);
            const TaskId rx = mb.receivers.pop();
            if (rx != kNoTask) {
              Task& r = task(rx);
              r.last_message = s.message;
              ++r.pc;
              wake_task(rx);
            } else {
              mb.messages.push_back(s.message);
            }
            Task& tk = task(id);
            ++tk.pc;
            step_task(id);
          });
}

void Kernel::op_recv(Task& t, const op::Recv& r) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.mailbox_op,
          [this, id, r] {
            Task& tk = task(id);
            Mailbox& mb = mailboxes_.at(r.box);
            if (!mb.messages.empty()) {
              tk.last_message = mb.messages.front();
              mb.messages.pop_front();
              ++tk.pc;
              step_task(id);
            } else {
              mb.receivers.add(id, tk.priority);
              block_task(id, WaitKind::kMailbox, r.box);
            }
          });
}

void Kernel::op_queue_send(Task& t, const op::QueueSend& s) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.queue_op,
          [this, id, s] {
            Task& tk = task(id);
            MessageQueue& q = queues_.at(s.queue);
            // A waiting receiver consumes directly.
            const TaskId rx = q.receivers.pop();
            if (rx != kNoTask) {
              Task& r = task(rx);
              r.last_message = s.message;
              ++r.pc;
              wake_task(rx);
              ++tk.pc;
              step_task(id);
              return;
            }
            if (q.messages.size() < q.capacity) {
              q.messages.push_back(s.message);
              ++tk.pc;
              step_task(id);
            } else {
              queue_send_payload_[id] = s.message;
              q.senders.add(id, tk.priority);
              block_task(id, WaitKind::kQueue, s.queue);
            }
          });
}

void Kernel::op_queue_recv(Task& t, const op::QueueRecv& r) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.queue_op,
          [this, id, r] {
            Task& tk = task(id);
            MessageQueue& q = queues_.at(r.queue);
            if (!q.messages.empty()) {
              tk.last_message = q.messages.front();
              q.messages.pop_front();
              // Admit one blocked sender into the freed slot (its payload
              // stays parked in queue_send_payload_ until overwritten by
              // its next blocking send).
              const TaskId sx = q.senders.pop();
              if (sx != kNoTask) {
                q.messages.push_back(queue_send_payload_[sx]);
                Task& snd = task(sx);
                ++snd.pc;
                wake_task(sx);
              }
              ++tk.pc;
              step_task(id);
            } else {
              q.receivers.add(id, tk.priority);
              block_task(id, WaitKind::kQueue, r.queue);
            }
          });
}

void Kernel::op_event_set(Task& t, const op::EventSet& e) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.event_op,
          [this, id, e] {
            EventGroup& g = event_groups_.at(e.group);
            g.flags |= e.mask;
            for (auto it = g.waiters.begin(); it != g.waiters.end();) {
              if ((g.flags & it->mask) == it->mask) {
                Task& w = task(it->task);
                ++w.pc;
                wake_task(it->task);
                it = g.waiters.erase(it);
              } else {
                ++it;
              }
            }
            Task& tk = task(id);
            ++tk.pc;
            step_task(id);
          });
}

void Kernel::op_event_wait(Task& t, const op::EventWait& e) {
  const TaskId id = t.id;
  service(t.pe, cost_table_.event_op,
          [this, id, e] {
            Task& tk = task(id);
            EventGroup& g = event_groups_.at(e.group);
            if ((g.flags & e.mask) == e.mask) {
              ++tk.pc;
              step_task(id);
            } else {
              g.waiters.push_back({id, e.mask});
              block_task(id, WaitKind::kEvents, e.group);
            }
          });
}

}  // namespace delta::rtos
