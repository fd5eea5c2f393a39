#include "obs/trace.h"

#include <algorithm>

namespace delta::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kBusTransfer: return "bus_transfer";
    case EventKind::kLockAcquire: return "lock_acquire";
    case EventKind::kLockRelease: return "lock_release";
    case EventKind::kLockSpin: return "lock_spin";
    case EventKind::kDeadlockRequest: return "deadlock_request";
    case EventKind::kDeadlockRelease: return "deadlock_release";
    case EventKind::kAlloc: return "alloc";
    case EventKind::kFree: return "free";
    case EventKind::kContextSwitch: return "context_switch";
    case EventKind::kKernelService: return "kernel_service";
    case EventKind::kWaitFor: return "wait_for";
  }
  return "unknown";
}

const char* wait_object_name(WaitObject kind) {
  switch (kind) {
    case WaitObject::kResource: return "resource";
    case WaitObject::kLock: return "lock";
    case WaitObject::kSemaphore: return "semaphore";
    case WaitObject::kMailbox: return "mailbox";
    case WaitObject::kQueue: return "queue";
    case WaitObject::kEvent: return "event";
    case WaitObject::kDevice: return "device";
    case WaitObject::kOther: return "other";
  }
  return "unknown";
}

std::uint64_t pack_wait_for(const WaitForInfo& info) {
  std::uint64_t a1 = info.object;
  a1 |= static_cast<std::uint64_t>(info.holder) << 32;
  if (info.has_holder) a1 |= std::uint64_t{1} << 48;
  a1 |= static_cast<std::uint64_t>(info.kind) << 56;
  return a1;
}

WaitForInfo unpack_wait_for(std::uint64_t a1) {
  WaitForInfo info;
  info.object = static_cast<std::uint32_t>(a1 & 0xffff'ffffULL);
  info.holder = static_cast<std::uint16_t>((a1 >> 32) & 0xffffULL);
  info.has_holder = ((a1 >> 48) & 1ULL) != 0;
  info.kind = static_cast<WaitObject>((a1 >> 56) & 0xffULL);
  return info;
}

void TraceRecorder::record_slow(EventKind kind, std::uint16_t pe,
                                sim::Cycles start, sim::Cycles dur,
                                std::uint64_t a0, std::uint64_t a1) {
  ++recorded_;
  if (ring_.size() < cap_) {
    // Still filling: append, growing geometrically but never past the
    // bound, so a run pays for the events it records, not for cap_.
    if (ring_.size() == ring_.capacity())
      ring_.reserve(std::min(cap_, std::max<std::size_t>(
                                       kInitialSlots, 2 * ring_.size())));
    ring_.push_back(Event{start, dur, a0, a1, kind, pe});
    return;
  }
  // Full: overwrite the oldest event (next_ stays 0 while filling, which
  // is where the oldest event sits once the ring first fills).
  ring_[next_] = Event{start, dur, a0, a1, kind, pe};
  next_ = next_ + 1 == cap_ ? 0 : next_ + 1;
}

void TraceRecorder::enable(std::size_t capacity) {
  cap_ = capacity;
  ring_.clear();
  // Keep a previous run's storage only while it fits the new bound.
  if (ring_.capacity() > capacity) ring_.shrink_to_fit();
  next_ = 0;
  recorded_ = 0;
}

std::vector<Event> TraceRecorder::events() const {
  // Until the ring first fills, next_ is 0 and ring_ is in recording
  // order; once it has wrapped, the oldest retained event sits at next_.
  const auto first = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  out.insert(out.end(), first, ring_.end());
  out.insert(out.end(), ring_.begin(), first);
  return out;
}

}  // namespace delta::obs
