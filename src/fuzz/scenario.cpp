#include "fuzz/scenario.h"

#include <algorithm>
#include <limits>
#include <set>

#include "soc/delta_framework.h"

namespace delta::fuzz {

const char* step_kind_name(Step::Kind k) {
  switch (k) {
    case Step::Kind::kCompute: return "compute";
    case Step::Kind::kRequest: return "request";
    case Step::Kind::kRelease: return "release";
    case Step::Kind::kLock: return "lock";
    case Step::Kind::kUnlock: return "unlock";
    case Step::Kind::kAlloc: return "alloc";
    case Step::Kind::kFree: return "free";
  }
  return "?";
}

std::uint64_t smallest_preset_heap_bytes() {
  static const std::uint64_t least = [] {
    std::uint64_t bytes = std::numeric_limits<std::uint64_t>::max();
    for (const soc::RtosPreset p : soc::kAllRtosPresets) {
      const soc::MpsocConfig mc = soc::rtos_preset(p).to_mpsoc_config();
      const std::uint64_t dmmu =
          std::uint64_t{mc.socdmmu.total_blocks} * mc.socdmmu.block_bytes;
      bytes = std::min({bytes, mc.heap_bytes, dmmu});
    }
    return bytes;
  }();
  return least;
}

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  auto err = [&](const std::string& m) { errors.push_back(m); };
  const auto bound = [&](const char* field, std::size_t n) {
    if (n > rtos::kMaxGeometry)
      err(std::string(field) + " " + std::to_string(n) +
          " exceeds the geometry bound of " +
          std::to_string(rtos::kMaxGeometry));
  };
  bound("pe_count", pe_count);
  bound("resource_count", resource_count);
  bound("lock_count", lock_count);
  bound("task count", tasks.size());
  if (pe_count == 0) err("pe_count is zero");
  if (resource_count == 0) err("resource_count is zero");
  if (tasks.empty()) err("no tasks");
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const ScenarioTask& t = tasks[ti];
    const std::string who = "task " + std::to_string(ti) + " (" + t.name + ")";
    if (t.pe >= pe_count) err(who + ": pe out of range");
    // Walk the script tracking held resources/locks/slots.
    std::set<rtos::ResourceId> held;
    std::set<rtos::LockId> locked;
    std::set<std::string> slots;
    for (std::size_t si = 0; si < t.steps.size(); ++si) {
      const Step& s = t.steps[si];
      switch (s.kind) {
        case Step::Kind::kCompute:
          break;
        case Step::Kind::kRequest: {
          if (s.resources.empty()) err(who + ": empty request");
          std::set<rtos::ResourceId> uniq(s.resources.begin(),
                                          s.resources.end());
          if (uniq.size() != s.resources.size())
            err(who + ": duplicate resource in one request");
          for (rtos::ResourceId r : s.resources) {
            if (r >= resource_count)
              err(who + ": resource id out of range");
            else if (!held.insert(r).second)
              err(who + ": requests a held resource");
          }
          break;
        }
        case Step::Kind::kRelease:
          for (rtos::ResourceId r : s.resources) {
            if (r >= resource_count)
              err(who + ": resource id out of range");
            else if (held.erase(r) == 0)
              err(who + ": releases an unheld resource");
          }
          break;
        case Step::Kind::kLock:
          if (s.lock >= lock_count) err(who + ": lock id out of range");
          // Non-nested by construction: lock deadlock is impossible, so
          // every backend pair must complete lock sections.
          else if (!locked.insert(s.lock).second || locked.size() > 1)
            err(who + ": nested or re-entered lock");
          break;
        case Step::Kind::kUnlock:
          if (s.lock >= lock_count) err(who + ": lock id out of range");
          else if (locked.erase(s.lock) == 0)
            err(who + ": unlocks an unheld lock");
          break;
        case Step::Kind::kAlloc:
          if (s.bytes == 0) err(who + ": zero-byte alloc");
          // Larger than some backend's whole heap: no SUT could grant
          // it, so it is a malformed scenario, not a differential find.
          if (s.bytes > smallest_preset_heap_bytes())
            err(who + ": step " + std::to_string(si) + " allocates " +
                std::to_string(s.bytes) + " bytes, more than the " +
                std::to_string(smallest_preset_heap_bytes()) +
                "-byte heap of the smallest preset");
          if (!slots.insert(s.slot).second)
            err(who + ": reuses live slot '" + s.slot + "'");
          break;
        case Step::Kind::kFree:
          if (slots.erase(s.slot) == 0)
            err(who + ": frees unknown slot '" + s.slot + "'");
          break;
      }
    }
    if (!held.empty()) err(who + ": finishes holding resources");
    if (!locked.empty()) err(who + ": finishes holding locks");
    if (!slots.empty()) err(who + ": finishes with live allocations");
  }
  return errors;
}

rtos::Program Scenario::to_program(const ScenarioTask& t) {
  rtos::Program p;
  for (const Step& s : t.steps) {
    switch (s.kind) {
      case Step::Kind::kCompute: p.compute(s.cycles); break;
      case Step::Kind::kRequest: p.request(s.resources); break;
      case Step::Kind::kRelease: p.release(s.resources); break;
      case Step::Kind::kLock: p.lock(s.lock); break;
      case Step::Kind::kUnlock: p.unlock(s.lock); break;
      case Step::Kind::kAlloc: p.alloc(s.bytes, s.slot); break;
      case Step::Kind::kFree: p.free(s.slot); break;
    }
  }
  return p;
}

void Scenario::install(rtos::Kernel& k) const {
  for (const ScenarioTask& t : tasks)
    k.create_task(t.name, t.pe, t.priority, to_program(t), t.release_time);
}

namespace {

sim::Cycles draw_compute(const GeneratorParams& p, sim::Rng& rng) {
  return p.compute_quantum *
         (1 + rng.below(static_cast<std::uint64_t>(p.max_compute_quanta)));
}

Step make_compute(sim::Cycles cycles) {
  Step s;
  s.kind = Step::Kind::kCompute;
  s.cycles = cycles;
  return s;
}

Step make_resource_step(Step::Kind kind, std::vector<rtos::ResourceId> rs) {
  Step s;
  s.kind = kind;
  s.resources = std::move(rs);
  return s;
}

Step make_lock_step(Step::Kind kind, rtos::LockId l) {
  Step s;
  s.kind = kind;
  s.lock = l;
  return s;
}

std::size_t draw_between(std::size_t lo, std::size_t hi, sim::Rng& rng) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

}  // namespace

GeneratorParams large_geometry_params() {
  GeneratorParams p;
  p.min_pes = 8;
  p.max_pes = 64;
  p.min_resources = 16;
  p.max_resources = 64;
  p.min_tasks = 16;
  p.max_tasks = 64;
  p.max_locks = 8;
  p.min_rounds = 2;
  p.max_rounds = 5;
  // Software detection costs O(m*n) cycles per request, so a 64-task
  // 64-resource workload needs far more headroom than the default
  // 4x6-geometry budget before "hit the limit" means livelock.
  p.run_limit = 2'000'000'000;
  return p;
}

Scenario random_scenario(const GeneratorParams& p, sim::Rng& rng) {
  Scenario s;
  s.pe_count = draw_between(p.min_pes, p.max_pes, rng);
  s.resource_count = draw_between(p.min_resources, p.max_resources, rng);
  const std::size_t tasks = draw_between(p.min_tasks, p.max_tasks, rng);
  s.lock_count = p.max_locks == 0 ? 0 : rng.below(p.max_locks + 1);
  s.run_limit = p.run_limit;

  for (std::size_t ti = 0; ti < tasks; ++ti) {
    ScenarioTask t;
    t.name = "t" + std::to_string(ti);
    t.pe = ti % s.pe_count;
    // Distinct priorities: grant arbitration never tie-breaks, which
    // keeps outcomes schedule-robust across backend timing differences.
    t.priority = static_cast<rtos::Priority>(ti + 1);
    t.release_time =
        p.max_release_jitter == 0
            ? 0
            : p.compute_quantum *
                  rng.below(p.max_release_jitter / p.compute_quantum + 1);
    int alloc_seq = 0;
    const int rounds = static_cast<int>(
        draw_between(static_cast<std::size_t>(p.min_rounds),
                     static_cast<std::size_t>(p.max_rounds), rng));
    for (int round = 0; round < rounds; ++round) {
      // Pick 1-2 distinct resources for this acquire-use-release round.
      std::vector<rtos::ResourceId> rs;
      rs.push_back(rng.below(s.resource_count));
      if (s.resource_count > 1 && rng.chance(p.second_resource_p)) {
        const rtos::ResourceId extra = rng.below(s.resource_count);
        if (extra != rs[0]) rs.push_back(extra);
      }
      t.steps.push_back(make_compute(draw_compute(p, rng)));
      if (rs.size() == 2 && rng.chance(p.sequential_request_p)) {
        // Sequential single requests: the R-dl shape.
        t.steps.push_back(make_resource_step(Step::Kind::kRequest, {rs[0]}));
        t.steps.push_back(make_compute(draw_compute(p, rng)));
        t.steps.push_back(make_resource_step(Step::Kind::kRequest, {rs[1]}));
      } else {
        t.steps.push_back(make_resource_step(Step::Kind::kRequest, rs));
      }
      t.steps.push_back(make_compute(draw_compute(p, rng)));
      if (s.lock_count > 0 && rng.chance(p.lock_section_p)) {
        const rtos::LockId l = rng.below(s.lock_count);
        t.steps.push_back(make_lock_step(Step::Kind::kLock, l));
        t.steps.push_back(make_compute(draw_compute(p, rng)));
        t.steps.push_back(make_lock_step(Step::Kind::kUnlock, l));
      }
      if (rng.chance(p.alloc_p)) {
        Step a;
        a.kind = Step::Kind::kAlloc;
        a.bytes = 1 + rng.below(p.max_alloc_bytes);
        a.slot = "s" + std::to_string(alloc_seq++);
        t.steps.push_back(a);
        t.steps.push_back(make_compute(draw_compute(p, rng)));
        Step f;
        f.kind = Step::Kind::kFree;
        f.slot = a.slot;
        t.steps.push_back(f);
      }
      t.steps.push_back(make_resource_step(Step::Kind::kRelease, rs));
    }
    s.tasks.push_back(std::move(t));
  }
  return s;
}

}  // namespace delta::fuzz
