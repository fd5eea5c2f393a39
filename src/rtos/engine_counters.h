// Host-side engine counters for the kernel's service path.
//
// The sim-layer EngineStats (sim/engine_stats.h) sees the event queue;
// this struct sees the kernel constructs sitting on top of it: how long
// the fused service windows run (one event per window since PR 10 —
// the "fused-chain length" is the window's cycle count), how often
// reschedule() takes one of its fast-outs vs paying the bounded
// task-table scan, and how the avoidance give-up/re-request ping-pong
// clusters into episodes (ROADMAP item 2's backoff design needs the
// episode-length distribution, not just corpus seeds).
//
// Collection is gated once, at run time, by
// Kernel::enable_engine_counters(): runs that never enable it pay one
// null test per site. Everything here is derived from simulated
// state — bit-identical across hosts, thread counts and reruns.
#pragma once

#include <cstdint>

#include "sim/engine_stats.h"

namespace delta::rtos {

/// Counters populated by the Kernel when engine introspection is on.
struct EngineCounters {
  // Fused service windows (kernel entry -> completion, one event each).
  std::uint64_t service_windows = 0;
  sim::Log2Histogram service_window_cycles;  ///< window length in cycles

  // reschedule() outcome breakdown. `calls` counts every invocation
  // that got past the halted check; the three outcomes partition it:
  // returned because the PE is inside a service window, returned
  // because no task is ready there (the per-PE ready counts' win), or
  // paid the bounded best-priority scan.
  std::uint64_t resched_calls = 0;
  std::uint64_t resched_fastout_in_service = 0;
  std::uint64_t resched_fastout_idle = 0;
  std::uint64_t resched_scans = 0;

  // Give-up/re-request traffic (avoidance livelock breaker). An
  // episode is a maximal run of consecutive give-up requests aimed at
  // the same victim; the length histogram sizes the ping-pong bursts a
  // backoff would have to damp.
  std::uint64_t give_up_events = 0;
  std::uint64_t give_up_resources = 0;  ///< resources asked to be given up
  std::uint64_t give_up_episodes = 0;
  sim::Log2Histogram give_up_episode_len;

  void merge(const EngineCounters& o) {
    service_windows += o.service_windows;
    service_window_cycles.merge(o.service_window_cycles);
    resched_calls += o.resched_calls;
    resched_fastout_in_service += o.resched_fastout_in_service;
    resched_fastout_idle += o.resched_fastout_idle;
    resched_scans += o.resched_scans;
    give_up_events += o.give_up_events;
    give_up_resources += o.give_up_resources;
    give_up_episodes += o.give_up_episodes;
    give_up_episode_len.merge(o.give_up_episode_len);
  }
};

}  // namespace delta::rtos
