#include "soc/mpsoc.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "soc/utilization.h"

namespace delta::soc {

namespace {

std::unique_ptr<rtos::DeadlockStrategy> make_strategy(
    const MpsocConfig& cfg, bus::SharedBus* bus) {
  const std::size_t m =
      std::max(cfg.resources.size(), cfg.deadlock_unit_resources);
  const std::size_t n = cfg.max_tasks;
  switch (cfg.deadlock) {
    case DeadlockComponent::kNone:
      return rtos::make_none_strategy(m, n, cfg.costs);
    case DeadlockComponent::kPddaSoftware:
      return rtos::make_pdda_software_strategy(m, n, cfg.costs);
    case DeadlockComponent::kDdu:
      return rtos::make_ddu_strategy(m, n, cfg.costs, bus,
                                     cfg.deadlock_clusters);
    case DeadlockComponent::kDaaSoftware:
      return rtos::make_daa_software_strategy(m, n, cfg.costs);
    case DeadlockComponent::kDau: {
      std::vector<std::size_t> master_of_task;
      for (std::size_t t = 0; t < n; ++t)
        master_of_task.push_back(t % cfg.pe_count);
      return rtos::make_dau_strategy(m, n, cfg.costs, bus,
                                     std::move(master_of_task),
                                     cfg.deadlock_clusters);
    }
    case DeadlockComponent::kBankers:
      return rtos::make_bankers_strategy(m, n, cfg.costs);
    case DeadlockComponent::kWfgRecovery:
      return rtos::make_wfg_strategy(m, n, cfg.costs);
  }
  throw std::logic_error("unknown deadlock component");
}

std::unique_ptr<rtos::LockBackend> make_locks(const MpsocConfig& cfg) {
  switch (cfg.lock) {
    case LockComponent::kSoftwarePi:
      // Same short/long partition as the SoCLC would use, so spin-mode
      // comparisons are apples to apples.
      return std::make_unique<rtos::SoftwarePiLockBackend>(
          cfg.soclc.short_locks + cfg.soclc.long_locks, cfg.costs,
          cfg.soclc.short_locks);
    case LockComponent::kSoclc:
      return std::make_unique<rtos::SoclcLockBackend>(cfg.soclc, cfg.costs,
                                                      cfg.lock_ceilings);
  }
  throw std::logic_error("unknown lock component");
}

std::unique_ptr<rtos::MemoryBackend> make_memory(
    const MpsocConfig& cfg, bus::SharedBus* bus) {
  switch (cfg.memory) {
    case MemoryComponent::kMallocFree:
      return std::make_unique<rtos::SoftwareHeapBackend>(
          cfg.heap_base, cfg.heap_bytes, cfg.costs);
    case MemoryComponent::kSocdmmu: {
      hw::SocdmmuConfig dc = cfg.socdmmu;
      dc.pe_count = cfg.pe_count;
      return std::make_unique<rtos::SocdmmuBackend>(dc, cfg.costs, bus);
    }
  }
  throw std::logic_error("unknown memory component");
}

}  // namespace

Mpsoc::Mpsoc(MpsocConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.pe_count == 0) throw std::invalid_argument("Mpsoc: zero PEs");
  if (cfg_.resources.empty())
    throw std::invalid_argument("Mpsoc: no resources");
  if (cfg_.lock == LockComponent::kSoclc && !cfg_.lock_ceilings.empty() &&
      cfg_.lock_ceilings.size() !=
          cfg_.soclc.short_locks + cfg_.soclc.long_locks)
    throw std::invalid_argument(
        "Mpsoc: lock_ceilings has " +
        std::to_string(cfg_.lock_ceilings.size()) +
        " entries but the SoCLC is configured with " +
        std::to_string(cfg_.soclc.short_locks + cfg_.soclc.long_locks) +
        " locks");
  // Masters: PEs plus one port for the hardware units.
  bus_ = std::make_unique<bus::SharedBus>(cfg_.pe_count + 1,
                                          cfg_.bus_timing);
  l2_ = std::make_unique<mem::L2Memory>();
  map_ = bus::AddressMap::base_mpsoc();
  for (std::size_t pe = 0; pe < cfg_.pe_count; ++pe) l1_.emplace_back();

  rtos::KernelConfig kc;
  kc.pe_count = cfg_.pe_count;
  kc.resource_count = cfg_.resources.size();
  kc.max_tasks = cfg_.max_tasks;
  kc.costs = cfg_.costs;
  kc.stop_on_deadlock = cfg_.stop_on_deadlock;
  kc.recovery = cfg_.recovery;
  kc.detection_period = cfg_.detection_period;
  kc.claims = cfg_.claims;
  kc.time_slice = cfg_.time_slice;
  kc.spin_short_locks = cfg_.spin_short_locks;
  kc.trace = cfg_.trace;
  kc.record_transitions = cfg_.record_transitions;
  for (const ResourceSpec& r : cfg_.resources)
    kc.resource_names.push_back(r.name);

  kernel_ = std::make_unique<rtos::Kernel>(
      sim_, *bus_, std::move(kc), make_strategy(cfg_, bus_.get()),
      make_locks(cfg_), make_memory(cfg_, bus_.get()));

  if (cfg_.trace_capacity > 0) obs_.trace.enable(cfg_.trace_capacity);
  bus_->set_observer(&obs_);
  kernel_->set_observer(&obs_);
  if (cfg_.engine_stats) {
    sim_.enable_engine_stats();
    kernel_->enable_engine_counters();
  }
}

rtos::ResourceId Mpsoc::resource(const std::string& name) const {
  for (std::size_t i = 0; i < cfg_.resources.size(); ++i)
    if (cfg_.resources[i].name == name) return i;
  throw std::invalid_argument("unknown resource: " + name);
}

EngineReport Mpsoc::engine_report() const {
  EngineReport r;
  if (!cfg_.engine_stats) return r;
  r.enabled = true;
  r.events_dispatched = sim_.events_dispatched();
  r.queue_footprint_bytes =
      static_cast<std::uint64_t>(sim_.queue_footprint_bytes());
  r.queue = sim_.engine_stats();
  r.kernel = kernel_->engine_counters_snapshot();
  return r;
}

void Mpsoc::stamp_trace_dropped() {
  if (!obs_.trace.enabled()) return;
  obs::Counter& c = obs_.metrics.counter("trace.dropped");
  c.add(obs_.trace.dropped() - c.value());
}

sim::Cycles Mpsoc::run(sim::Cycles limit) {
  kernel_->start();
  if (cfg_.sample_period == 0) {
    const sim::Cycles end = sim_.run(limit);
    stamp_trace_dropped();
    return end;
  }

  std::vector<std::string> tracks;
  for (std::size_t pe = 0; pe < cfg_.pe_count; ++pe)
    tracks.push_back("pe" + std::to_string(pe) + ".busy_cycles");
  tracks.push_back("bus.busy_cycles");
  tracks.push_back("bus.words");
  tracks.push_back("lock.spin_polls");
  tracks.push_back("sched.ready_depth");
  tracks.push_back("mem.heap_bytes");
  series_ = obs::TimeSeries(cfg_.sample_period, std::move(tracks));
  if (cfg_.engine_stats)
    engine_series_ = obs::TimeSeries(
        cfg_.sample_period, {"engine.queue_depth", "engine.overflow_depth",
                             "engine.footprint_bytes"});

  WindowedPeBusy busy(*kernel_);
  std::uint64_t prev_bus_busy = 0;
  std::uint64_t prev_bus_words = 0;
  std::uint64_t prev_spins = 0;
  const obs::Counter& spins = obs_.metrics.counter("lock.spins");
  const auto take_sample = [&](sim::Cycles t) {
    std::vector<std::uint64_t> v;
    for (const sim::Cycles b : busy.advance(t)) v.push_back(b);
    std::uint64_t bus_busy = 0;
    std::uint64_t bus_words = 0;
    for (bus::MasterId m = 0; m < bus_->masters(); ++m) {
      bus_busy += bus_->stats(m).busy_cycles;
      bus_words += bus_->stats(m).words;
    }
    v.push_back(bus_busy - prev_bus_busy);
    prev_bus_busy = bus_busy;
    v.push_back(bus_words - prev_bus_words);
    prev_bus_words = bus_words;
    v.push_back(spins.value() - prev_spins);
    prev_spins = spins.value();
    std::uint64_t ready = 0;
    for (rtos::TaskId id = 0; id < kernel_->task_count(); ++id)
      if (kernel_->task(id).state == rtos::TaskState::kReady) ++ready;
    v.push_back(ready);
    v.push_back(kernel_->memory().bytes_in_use());
    series_.append(t, std::move(v));
    if (cfg_.engine_stats)
      engine_series_.append(
          t, {static_cast<std::uint64_t>(sim_.queue_depth()),
              static_cast<std::uint64_t>(sim_.queue_overflow_depth()),
              static_cast<std::uint64_t>(sim_.queue_footprint_bytes())});
  };

  // Drive the simulator in period-sized chunks: step() never advances
  // now() past the pending events, so probing between chunks observes
  // the true end-of-window state. The final run() restores the plain
  // "clock ends at the limit" semantics of the unsampled path.
  sim::Cycles next = cfg_.sample_period;
  for (;;) {
    const sim::Cycles until = std::min(next, limit);
    while (sim_.step(until)) {
    }
    if (sim_.idle() || until >= limit) break;
    take_sample(until);
    next += cfg_.sample_period;
  }
  const sim::Cycles end = sim_.run(limit);
  // Close the last (possibly partial) window so delta tracks integrate
  // to the end-of-run totals exactly.
  if (series_.empty() || series_.samples().back().t < end)
    take_sample(end);
  stamp_trace_dropped();
  return end;
}

}  // namespace delta::soc
