// Task programs.
//
// Application tasks are small interpreted programs over the kernel's
// service vocabulary: compute for N cycles, request/release resources,
// take/give locks, allocate/free memory, IPC, plus a Call escape hatch
// for dynamic behaviour (a Call may append further ops). This keeps the
// simulation deterministic and lets the paper's event tables (Tables
// 4/6/8) be written down literally in the workload definitions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "rtos/types.h"
#include "sim/sim_time.h"

namespace delta::rtos {

class Kernel;
struct Task;

namespace op {

/// Busy-loop on the PE for `cycles` (preemptible).
struct Compute {
  sim::Cycles cycles;
};

/// Request every resource in `resources`; the task blocks until all are
/// granted (paper semantics: "p3 requests IDCT and WI; only WI is
/// granted" leaves p3 blocked on the rest).
struct Request {
  std::vector<ResourceId> resources;
};

/// Release each resource in `resources` (must be held).
struct Release {
  std::vector<ResourceId> resources;
};

/// Run a job of `cycles` on the device behind a *held* resource. The
/// device processes autonomously — the PE is freed for other tasks — and
/// the completion interrupt resumes this task (§5.1's interrupt
/// generators).
struct UseDevice {
  ResourceId resource;
  sim::Cycles cycles;
};

/// Acquire/release a lock via the configured lock backend.
struct Lock {
  LockId lock;
};
struct Unlock {
  LockId lock;
};

/// Dynamic memory: allocate `bytes` into named `slot`; free a slot.
struct Alloc {
  std::uint64_t bytes;
  std::string slot;
};

/// Shared allocation (SoCDMMU G_alloc_rw/G_alloc_ro): create-or-attach
/// the named region; `writable` selects rw vs ro.
struct AllocShared {
  std::size_t region;
  std::uint64_t bytes;
  bool writable;
  std::string slot;
};
struct Free {
  std::string slot;
};

/// Counting-semaphore operations.
struct SemWait {
  SemId sem;
};
struct SemPost {
  SemId sem;
};

/// Mailbox send (non-blocking post) / receive (blocks when empty).
struct Send {
  MailboxId box;
  std::uint64_t message;
};
struct Recv {
  MailboxId box;
};

/// Message-queue send (blocks when full) / receive (blocks when empty).
struct QueueSend {
  QueueId queue;
  std::uint64_t message;
};
struct QueueRecv {
  QueueId queue;
};

/// Event-flag group: set flags / wait for all of `mask`.
struct EventSet {
  EventGroupId group;
  std::uint32_t mask;
};
struct EventWait {
  EventGroupId group;
  std::uint32_t mask;
};

/// Arbitrary hook running in kernel context (zero simulated time). May
/// inspect the kernel and append ops to the running task.
struct Call {
  std::function<void(Kernel&, Task&)> fn;
};

using Op = std::variant<Compute, Request, Release, UseDevice, Lock, Unlock,
                        Alloc, AllocShared, Free, SemWait, SemPost, Send,
                        Recv, QueueSend, QueueRecv, EventSet, EventWait,
                        Call>;

}  // namespace op

/// Fluent builder for task programs.
class Program {
 public:
  Program& compute(sim::Cycles c) { return push(op::Compute{c}); }
  Program& request(std::vector<ResourceId> rs) {
    return push(op::Request{std::move(rs)});
  }
  Program& release(std::vector<ResourceId> rs) {
    return push(op::Release{std::move(rs)});
  }
  Program& use_device(ResourceId r, sim::Cycles c) {
    return push(op::UseDevice{r, c});
  }
  Program& lock(LockId l) { return push(op::Lock{l}); }
  Program& unlock(LockId l) { return push(op::Unlock{l}); }
  Program& alloc(std::uint64_t bytes, std::string slot) {
    return push(op::Alloc{bytes, std::move(slot)});
  }
  Program& alloc_shared(std::size_t region, std::uint64_t bytes,
                        bool writable, std::string slot) {
    return push(op::AllocShared{region, bytes, writable, std::move(slot)});
  }
  Program& free(std::string slot) { return push(op::Free{std::move(slot)}); }
  Program& sem_wait(SemId s) { return push(op::SemWait{s}); }
  Program& sem_post(SemId s) { return push(op::SemPost{s}); }
  Program& send(MailboxId b, std::uint64_t msg) {
    return push(op::Send{b, msg});
  }
  Program& recv(MailboxId b) { return push(op::Recv{b}); }
  Program& queue_send(QueueId q, std::uint64_t msg) {
    return push(op::QueueSend{q, msg});
  }
  Program& queue_recv(QueueId q) { return push(op::QueueRecv{q}); }
  Program& event_set(EventGroupId g, std::uint32_t mask) {
    return push(op::EventSet{g, mask});
  }
  Program& event_wait(EventGroupId g, std::uint32_t mask) {
    return push(op::EventWait{g, mask});
  }
  Program& call(std::function<void(Kernel&, Task&)> fn) {
    return push(op::Call{std::move(fn)});
  }

  [[nodiscard]] const std::vector<op::Op>& ops() const { return ops_; }
  [[nodiscard]] std::vector<op::Op>& ops() { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

 private:
  std::vector<op::Op> ops_;
  Program& push(op::Op o) {
    ops_.push_back(std::move(o));
    return *this;
  }
};

}  // namespace delta::rtos
