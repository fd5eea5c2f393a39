// Shared bare-kernel test fixture.
//
// A World is the smallest complete system a kernel test needs: one
// simulator, one shared bus, and a Kernel wired to a selectable deadlock
// strategy plus the software lock and heap backends. It grew out of the
// ad-hoc structs in tests/integration/kernel_fuzz_test.cpp and
// failure_injection_test.cpp and is the fixture every kernel-level suite
// (including the differential fuzz suites) should reuse instead of
// re-rolling its own. For whole-MPSoC fixtures use soc::Mpsoc /
// soc::generate() instead — this one deliberately skips caches, devices
// and hardware lock/memory units to keep per-test setup cost near zero.
#pragma once

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "rtos/kernel.h"

namespace delta::tests {

/// Which deadlock strategy the World's kernel runs.
enum class StrategyKind { kNone, kPdda, kDdu, kDaa, kDau, kBankers, kWfg };

inline const char* strategy_kind_name(StrategyKind k) {
  switch (k) {
    case StrategyKind::kNone: return "none";
    case StrategyKind::kPdda: return "pdda";
    case StrategyKind::kDdu: return "ddu";
    case StrategyKind::kDaa: return "daa";
    case StrategyKind::kDau: return "dau";
    case StrategyKind::kBankers: return "bankers";
    case StrategyKind::kWfg: return "wfg";
  }
  return "?";
}

struct WorldConfig {
  StrategyKind strategy = StrategyKind::kDaa;
  std::size_t pe_count = 4;
  std::size_t resource_count = 5;
  std::size_t max_tasks = 5;
  rtos::RecoveryPolicy recovery = rtos::RecoveryPolicy::kNone;
  std::size_t lock_count = 8;
  std::uint64_t heap_base = 0x1000;
  std::uint64_t heap_bytes = 1 << 20;
  /// Periodic scan period for kWfg (KernelConfig::detection_period).
  sim::Cycles detection_period = 0;
  /// Banker's max-claims table for kBankers (KernelConfig::claims).
  std::vector<std::vector<rtos::ResourceId>> claims;
  /// Keep running after a detection (pair with a recovery policy).
  bool stop_on_deadlock = true;
};

struct World {
  sim::Simulator sim;
  bus::SharedBus bus;
  std::unique_ptr<rtos::Kernel> kernel;

  explicit World(const WorldConfig& wc = {})
      : bus(wc.pe_count + 1) {  // one master per PE + one for the unit
    rtos::KernelConfig cfg;
    cfg.pe_count = wc.pe_count;
    cfg.resource_count = wc.resource_count;
    cfg.max_tasks = wc.max_tasks;
    cfg.recovery = wc.recovery;
    cfg.detection_period = wc.detection_period;
    cfg.claims = wc.claims;
    cfg.stop_on_deadlock = wc.stop_on_deadlock;
    const std::size_t m = wc.resource_count;
    const std::size_t n = wc.max_tasks;
    // Hardware units answer requests from the PE that asked; map every
    // PE to its own bus master and fold the spare master onto PE 0.
    std::vector<std::size_t> masters(n);
    for (std::size_t i = 0; i < n; ++i) masters[i] = i % wc.pe_count;
    std::unique_ptr<rtos::DeadlockStrategy> strategy;
    switch (wc.strategy) {
      case StrategyKind::kNone:
        strategy = rtos::make_none_strategy(m, n, cfg.costs);
        break;
      case StrategyKind::kPdda:
        strategy = rtos::make_pdda_software_strategy(m, n, cfg.costs);
        break;
      case StrategyKind::kDdu:
        strategy = rtos::make_ddu_strategy(m, n, cfg.costs, &bus);
        break;
      case StrategyKind::kDaa:
        strategy = rtos::make_daa_software_strategy(m, n, cfg.costs);
        break;
      case StrategyKind::kDau:
        strategy = rtos::make_dau_strategy(m, n, cfg.costs, &bus, masters);
        break;
      case StrategyKind::kBankers:
        strategy = rtos::make_bankers_strategy(m, n, cfg.costs);
        break;
      case StrategyKind::kWfg:
        strategy = rtos::make_wfg_strategy(m, n, cfg.costs);
        break;
    }
    kernel = std::make_unique<rtos::Kernel>(
        sim, bus, cfg, std::move(strategy),
        std::make_unique<rtos::SoftwarePiLockBackend>(wc.lock_count,
                                                      cfg.costs),
        std::make_unique<rtos::SoftwareHeapBackend>(wc.heap_base,
                                                    wc.heap_bytes, cfg.costs));
  }

  /// Convenience constructor matching the historical fuzz-test shape.
  World(StrategyKind kind, rtos::RecoveryPolicy recovery)
      : World(make_config(kind, recovery)) {}

  [[nodiscard]] rtos::Kernel& k() { return *kernel; }

  /// Start the kernel and run to completion or `limit`.
  sim::Cycles run(sim::Cycles limit = 50'000'000) {
    kernel->start();
    return sim.run(limit);
  }

 private:
  static WorldConfig make_config(StrategyKind kind,
                                 rtos::RecoveryPolicy recovery) {
    WorldConfig wc;
    wc.strategy = kind;
    wc.recovery = recovery;
    return wc;
  }
};

}  // namespace delta::tests
