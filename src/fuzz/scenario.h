// Serializable fuzz scenarios.
//
// A Scenario is a self-contained, replayable description of a whole
// system exercise: the geometry (PEs, resources, task slots, locks) plus
// one scripted program per task over the kernel's behavioural core
// (compute / request / release / lock / unlock / alloc / free). The
// differential runner (fuzz/differential.h) instantiates the same
// scenario on two or more Table 3 configurations and cross-checks the
// behavioural outcome; the shrinker (fuzz/shrink.h) minimizes failing
// scenarios; fuzz/scenario_json.h round-trips them through JSON repros.
//
// Scenarios are deliberately *structured* rather than raw op lists:
// requests are paired with the releases that return them, allocations
// with their frees, locks with their unlocks. That keeps every scenario
// (and every shrinking step) well-formed — tasks never finish holding
// resources, so behavioural invariants stay meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtos/kernel.h"
#include "rtos/program.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace delta::fuzz {

/// One scripted step of a task.
struct Step {
  enum class Kind : std::uint8_t {
    kCompute,  ///< busy-loop `cycles`
    kRequest,  ///< request all of `resources` (blocks until granted)
    kRelease,  ///< release all of `resources`
    kLock,     ///< acquire lock `lock`
    kUnlock,   ///< release lock `lock`
    kAlloc,    ///< allocate `bytes` into `slot`
    kFree,     ///< free `slot`
  };
  Kind kind = Kind::kCompute;
  sim::Cycles cycles = 0;                   ///< kCompute
  std::vector<rtos::ResourceId> resources;  ///< kRequest / kRelease
  rtos::LockId lock = 0;                    ///< kLock / kUnlock
  std::uint64_t bytes = 0;                  ///< kAlloc
  std::string slot;                         ///< kAlloc / kFree

  bool operator==(const Step&) const = default;
};

const char* step_kind_name(Step::Kind k);

/// One task of the scenario: placement, priority and its script.
struct ScenarioTask {
  std::string name;
  rtos::PeId pe = 0;
  rtos::Priority priority = 1;
  sim::Cycles release_time = 0;
  std::vector<Step> steps;

  bool operator==(const ScenarioTask&) const = default;
};

/// The smallest heap any Table 3 preset builds: the lesser of the
/// software heap's MpsocConfig::heap_bytes and SoCDMMU's
/// total_blocks × block_bytes over every preset. An alloc step larger
/// than this could fail on some SUT for size alone.
[[nodiscard]] std::uint64_t smallest_preset_heap_bytes();

/// A complete, replayable system exercise.
struct Scenario {
  std::string name;
  std::uint64_t seed = 0;  ///< generator seed (0 for hand-written ones)
  std::size_t pe_count = 2;
  std::size_t resource_count = 2;
  std::size_t lock_count = 0;
  sim::Cycles run_limit = 50'000'000;
  std::vector<ScenarioTask> tasks;

  bool operator==(const Scenario&) const = default;

  /// Structural well-formedness: geometry within rtos::kMaxGeometry,
  /// ids in range, matched
  /// request/release, lock/unlock and alloc/free pairs, no task
  /// requesting a resource it already holds, no alloc larger than
  /// smallest_preset_heap_bytes(). Empty vector == valid.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The task's script as a kernel Program.
  [[nodiscard]] static rtos::Program to_program(const ScenarioTask& t);

  /// Create every task into `k` (geometry must match; throws on task
  /// table overflow or bad PE ids, as Kernel::create_task does).
  void install(rtos::Kernel& k) const;
};

/// Generator tuning knobs. The defaults produce small contended systems
/// in the spirit of tests/integration/kernel_fuzz_test.cpp: randomized
/// acquire-use-release rounds whose request order manufactures deadlock
/// opportunities, plus lock sections and balanced allocations.
struct GeneratorParams {
  std::size_t min_pes = 2, max_pes = 4;
  std::size_t min_resources = 2, max_resources = 6;
  std::size_t min_tasks = 2, max_tasks = 6;
  std::size_t max_locks = 3;
  int min_rounds = 1, max_rounds = 3;
  /// Compute phases are drawn as multiples of this quantum so that the
  /// scenario's contention structure dominates over the (intentionally
  /// different) service-cost timing of the compared backends.
  sim::Cycles compute_quantum = 500;
  int max_compute_quanta = 8;
  /// Probability that a two-resource round requests sequentially
  /// (request q1, compute, request q2 — the R-dl shape) instead of
  /// jointly.
  double sequential_request_p = 0.5;
  double second_resource_p = 0.6;
  double lock_section_p = 0.35;
  double alloc_p = 0.35;
  std::uint64_t max_alloc_bytes = 4096;
  sim::Cycles max_release_jitter = 2000;
  sim::Cycles run_limit = 50'000'000;
};

/// Generator tuning for large sharded geometries: up to 64 PEs, 64
/// resources and 64 tasks with more rounds per task, so cross-cluster
/// contention actually happens. A separate factory (the defaults above
/// stay untouched) because the default campaign's scenario stream — and
/// with it the golden-pinned reports — is a pure function of
/// GeneratorParams' defaults.
[[nodiscard]] GeneratorParams large_geometry_params();

/// Draw a random well-formed scenario. Pure function of (`params`,
/// `rng` state): the same seed always yields the same scenario.
[[nodiscard]] Scenario random_scenario(const GeneratorParams& params,
                                       sim::Rng& rng);

}  // namespace delta::fuzz
