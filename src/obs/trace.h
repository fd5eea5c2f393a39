// Structured trace recorder: a bounded ring buffer of typed events
// stamped with simulation time and the PE (bus master) that caused them.
//
// Disabled recorders (the default) cost one predictable branch per
// record() call — no allocation, no formatting, no virtual dispatch — so
// instrumentation can stay compiled into the hot paths. Enabled
// recorders grow with the events recorded, up to the capacity passed to
// enable(), and overwrite the oldest events once full (drop-oldest
// ring), keeping memory bounded on arbitrarily long runs; dropped()
// reports how many fell off the front.
//
// Events carry two uninterpreted u64 payload slots (a0/a1) whose meaning
// depends on the kind; chrome_trace.h knows how to label them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/sim_time.h"

namespace delta::obs {

/// What happened. Values are stable — they appear in exported traces.
enum class EventKind : std::uint8_t {
  kBusTransfer,      ///< a0 = words, a1 = cycles spent waiting for grant
  kLockAcquire,      ///< a0 = lock id, a1 = 1 if the grant was contended
  kLockRelease,      ///< a0 = lock id
  kLockSpin,         ///< a0 = lock id, a1 = polls so far
  kDeadlockRequest,  ///< a0 = resource id, a1 = unit (hw) cycles
  kDeadlockRelease,  ///< a0 = resource id, a1 = unit (hw) cycles
  kAlloc,            ///< a0 = size in bytes, a1 = 1 if shared region
  kFree,             ///< a0 = virtual address being freed
  kContextSwitch,    ///< a0 = incoming task id
  kKernelService,    ///< a0 = serviced task id (~0 = none); dur = cycles
  kWaitFor,          ///< a0 = waiter task id, a1 = pack_wait_for() payload
};

/// Human-readable identifier, e.g. "bus_transfer". Never returns null.
[[nodiscard]] const char* event_kind_name(EventKind kind);

/// What class of object a kWaitFor edge points at. Values are stable —
/// they are packed into exported trace payloads.
enum class WaitObject : std::uint8_t {
  kResource = 0,  ///< resource-manager resource (object = ResourceId)
  kLock = 1,      ///< lock (object = LockId)
  kSemaphore = 2,
  kMailbox = 3,
  kQueue = 4,
  kEvent = 5,
  kDevice = 6,  ///< blocked for a device-job completion interrupt
  kOther = 7,
};

/// Short identifier ("resource", "lock", ...). Never returns null.
[[nodiscard]] const char* wait_object_name(WaitObject kind);

/// Decoded kWaitFor payload: what the waiter blocked on and — when the
/// kernel can name one — which task currently holds that object.
struct WaitForInfo {
  std::uint32_t object = 0;  ///< id within the kind's namespace
  WaitObject kind = WaitObject::kResource;
  bool has_holder = false;
  std::uint16_t holder = 0;  ///< holder task id, valid iff has_holder
};

/// Pack/unpack the a1 slot of a kWaitFor event:
/// bits 0..31 object, 32..47 holder, 48 has_holder, 56..63 kind.
[[nodiscard]] std::uint64_t pack_wait_for(const WaitForInfo& info);
[[nodiscard]] WaitForInfo unpack_wait_for(std::uint64_t a1);

/// One recorded occurrence. Kept flat and trivially copyable; 40 bytes.
struct Event {
  sim::Cycles start = 0;  ///< sim time the activity began
  sim::Cycles dur = 0;    ///< cycles it took (0 = instantaneous)
  std::uint64_t a0 = 0;   ///< kind-specific payload (see EventKind)
  std::uint64_t a1 = 0;   ///< kind-specific payload (see EventKind)
  EventKind kind = EventKind::kBusTransfer;
  std::uint16_t pe = 0;  ///< bus master / PE id that caused the event
};

/// Bounded drop-oldest ring of Events. Disabled until enable().
class TraceRecorder {
 public:
  /// Start recording, keeping at most `capacity` most-recent events.
  /// `capacity` is a bound, not an up-front allocation: the ring grows
  /// geometrically as events arrive and never holds more than
  /// min(recorded(), capacity) of them. enable(0) disables recording
  /// again (and clears the buffer).
  void enable(std::size_t capacity);

  [[nodiscard]] bool enabled() const { return cap_ != 0; }

  /// Record one event. When disabled (the tracing-off fast path every
  /// sweep and bench runs in) this is a single predicted branch; the
  /// ring-append body lives out of line so the instrumentation costs
  /// hot call sites neither code size nor register pressure.
  void record(EventKind kind, std::uint16_t pe, sim::Cycles start,
              sim::Cycles dur, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (cap_ == 0) [[likely]] return;
    record_slow(kind, pe, start, dur, a0, a1);
  }

  /// Total record() calls while enabled (including dropped ones).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Events that fell off the front of the ring.
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > cap_ ? recorded_ - cap_ : 0;
  }

  /// Retained events in chronological (recording) order; unrolls the
  /// ring, so the oldest retained event comes first.
  [[nodiscard]] std::vector<Event> events() const;

 private:
  /// Out-of-line ring append; called only while enabled.
  void record_slow(EventKind kind, std::uint16_t pe, sim::Cycles start,
                   sim::Cycles dur, std::uint64_t a0, std::uint64_t a1);

  /// Slots reserved by the first record() after enable().
  static constexpr std::size_t kInitialSlots = 64;

  std::vector<Event> ring_;    ///< size() < cap_ until the ring first fills
  std::size_t cap_ = 0;        ///< 0 == disabled
  std::size_t next_ = 0;       ///< slot the next event overwrites once full
  std::uint64_t recorded_ = 0;
};

}  // namespace delta::obs
