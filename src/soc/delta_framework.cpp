#include "soc/delta_framework.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "deadlock/hierarchical.h"
#include "hw/verilog_gen.h"
#include "soc/archi_gen.h"

namespace delta::soc {

namespace {
const char* deadlock_name(DeadlockComponent d) {
  switch (d) {
    case DeadlockComponent::kNone: return "none";
    case DeadlockComponent::kPddaSoftware: return "PDDA in software";
    case DeadlockComponent::kDdu: return "DDU (hardware)";
    case DeadlockComponent::kDaaSoftware: return "DAA in software";
    case DeadlockComponent::kDau: return "DAU (hardware)";
    case DeadlockComponent::kBankers:
      return "Banker's avoidance in software";
    case DeadlockComponent::kWfgRecovery:
      return "wait-for-graph detection in software";
  }
  return "?";
}
const char* victim_name(rtos::RecoveryPolicy p) {
  switch (p) {
    case rtos::RecoveryPolicy::kNone: return "none";
    case rtos::RecoveryPolicy::kAbortLowestPriority: return "lowest-priority";
    case rtos::RecoveryPolicy::kAbortYoungest: return "youngest";
    case rtos::RecoveryPolicy::kAbortLowestCost: return "lowest-cost";
  }
  return "?";
}
const char* lock_name(LockComponent l) {
  return l == LockComponent::kSoclc ? "SoCLC with IPCP (hardware)"
                                    : "priority inheritance (software)";
}
const char* memory_name(MemoryComponent m) {
  return m == MemoryComponent::kSocdmmu ? "SoCDMMU (hardware)"
                                        : "malloc/free (software)";
}
}  // namespace

std::string to_string(const ConfigError& e) {
  return e.field + ": " + e.message;
}

std::vector<ConfigError> DeltaConfig::validate() const {
  std::vector<ConfigError> errors;
  const auto bound = [&](const char* field, std::size_t n) {
    if (n > rtos::kMaxGeometry)
      errors.push_back({field, std::to_string(n) +
                                   " exceeds the geometry bound of " +
                                   std::to_string(rtos::kMaxGeometry)});
  };
  bound("pe_count", pe_count);
  bound("task_count", task_count);
  bound("resource_count", resource_count);
  // Both lock backends size their tables from the SoCLC split.
  bound("soclc.short_locks", soclc.short_locks);
  bound("soclc.long_locks", soclc.long_locks);
  bound("socdmmu.total_blocks", socdmmu.total_blocks);
  if (pe_count == 0)
    errors.push_back({"pe_count", "zero PEs"});
  if (task_count == 0)
    errors.push_back({"task_count", "zero tasks"});
  if (resource_count == 0)
    errors.push_back({"resource_count", "zero resources"});
  if (deadlock_clusters == 0)
    errors.push_back({"deadlock_clusters",
                      "zero clusters (use 1 for a monolithic unit)"});
  else if (resource_count > 0 && deadlock_clusters > resource_count)
    errors.push_back({"deadlock_clusters",
                      "more clusters (" + std::to_string(deadlock_clusters) +
                          ") than resources (" +
                          std::to_string(resource_count) + ")"});
  if (lock == LockComponent::kSoclc &&
      soclc.short_locks + soclc.long_locks == 0)
    errors.push_back({"soclc", "SoCLC selected with zero locks"});
  if (lock == LockComponent::kSoclc && !lock_ceilings.empty() &&
      lock_ceilings.size() != soclc.short_locks + soclc.long_locks)
    errors.push_back(
        {"lock_ceilings",
         std::to_string(lock_ceilings.size()) +
             " ceilings for " +
             std::to_string(soclc.short_locks + soclc.long_locks) +
             " SoCLC locks (must be empty or match exactly)"});
  if (memory == MemoryComponent::kSocdmmu && socdmmu.total_blocks == 0)
    errors.push_back({"socdmmu", "SoCDMMU selected with zero blocks"});
  if (memory == MemoryComponent::kSocdmmu && socdmmu.block_bytes == 0)
    errors.push_back({"socdmmu", "SoCDMMU selected with zero-byte blocks"});
  if (deadlock == DeadlockComponent::kWfgRecovery && detection_period == 0)
    errors.push_back({"detection_period",
                      "wait-for-graph detection requires a scan period "
                      "(detection_period > 0)"});
  if (deadlock != DeadlockComponent::kWfgRecovery && detection_period != 0)
    errors.push_back({"detection_period",
                      "a scan period is only meaningful for the "
                      "wfg-recovery deadlock component"});
  if (!claims.empty() && deadlock != DeadlockComponent::kBankers)
    errors.push_back({"claims",
                      "a max-claims table requires the bankers deadlock "
                      "component"});
  if (claims.size() > task_count)
    errors.push_back({"claims",
                      std::to_string(claims.size()) +
                          " claim rows for " + std::to_string(task_count) +
                          " tasks"});
  for (std::size_t t = 0; t < claims.size(); ++t) {
    std::vector<rtos::ResourceId> sorted = claims[t];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      errors.push_back({"claims", "duplicate resource in claims for task " +
                                      std::to_string(t)});
    if (!sorted.empty() && sorted.back() >= resource_count)
      errors.push_back(
          {"claims", "claims for task " + std::to_string(t) +
                         " name resource " + std::to_string(sorted.back()) +
                         " but only " + std::to_string(resource_count) +
                         " resources exist"});
  }
  if (recovery != rtos::RecoveryPolicy::kNone &&
      !(deadlock == DeadlockComponent::kPddaSoftware ||
        deadlock == DeadlockComponent::kDdu ||
        deadlock == DeadlockComponent::kWfgRecovery))
    errors.push_back({"recovery",
                      "a victim policy requires a detection component "
                      "(pdda-software, ddu, or wfg-recovery)"});
  try {
    bus.validate();
  } catch (const std::exception& e) {
    errors.push_back({"bus", e.what()});
  }
  return errors;
}

void DeltaConfig::validate_or_throw() const {
  const std::vector<ConfigError> errors = validate();
  if (errors.empty()) return;
  std::ostringstream os;
  os << "delta: invalid configuration";
  for (const ConfigError& e : errors) os << "; " << to_string(e);
  throw std::invalid_argument(os.str());
}

MpsocConfig DeltaConfig::to_mpsoc_config() const {
  validate_or_throw();
  MpsocConfig mc;
  mc.pe_count = pe_count;
  mc.max_tasks = task_count;
  mc.deadlock_unit_resources = resource_count;
  mc.deadlock_clusters = deadlock_clusters;
  // The default resource_count (5) is the paper geometry: the four media
  // devices plus the spare unit row, which MpsocConfig's defaults carry.
  // Any other count synthesizes a table of that many anonymous
  // single-unit devices (q1..qm, no per-job processing time of their
  // own) — previously the requested count was silently dropped and the
  // kernel kept simulating the paper's four devices.
  if (resource_count != MpsocConfig{}.resources.size() + 1) {
    mc.resources.clear();
    for (std::size_t r = 0; r < resource_count; ++r)
      mc.resources.push_back({"q" + std::to_string(r + 1), 0});
  }
  mc.deadlock = deadlock;
  mc.lock = lock;
  mc.memory = memory;
  mc.costs = costs;
  mc.soclc = soclc;
  mc.lock_ceilings = lock_ceilings;
  mc.socdmmu = socdmmu;
  mc.stop_on_deadlock = stop_on_deadlock;
  mc.recovery = recovery;
  mc.detection_period = detection_period;
  mc.claims = claims;
  return mc;
}

std::string DeltaConfig::describe() const {
  std::ostringstream os;
  os << "delta framework configuration\n";
  os << "  Target: " << pe_count << " x " << cpu_type << ", "
     << resource_count << " resources, " << task_count << " tasks\n";
  os << "  Deadlock component: " << deadlock_name(deadlock) << "\n";
  if (deadlock_clusters > 1 &&
      (deadlock == DeadlockComponent::kDdu ||
       deadlock == DeadlockComponent::kDau))
    os << "    sharded into " << deadlock_clusters
       << " clusters + inter-cluster resolver\n";
  if (deadlock == DeadlockComponent::kWfgRecovery)
    os << "    scan period: " << detection_period << " cycles, victim: "
       << victim_name(recovery) << "\n";
  if (deadlock == DeadlockComponent::kBankers)
    os << "    max-claims rows declared: " << claims.size() << "\n";
  os << "  Lock component:     " << lock_name(lock) << "\n";
  os << "  Memory component:   " << memory_name(memory) << "\n";
  if (lock == LockComponent::kSoclc)
    os << "    SoCLC: " << soclc.short_locks << " short + "
       << soclc.long_locks << " long locks\n";
  if (memory == MemoryComponent::kSocdmmu)
    os << "    SoCDMMU: " << socdmmu.total_blocks << " blocks x "
       << socdmmu.block_bytes << " B\n";
  os << bus.describe();
  return os.str();
}

std::string to_string(RtosPreset p) {
  return "RTOS" + std::to_string(static_cast<int>(p));
}

RtosPreset rtos_preset_from_int(int index) {
  if (index < 1 || index > 7)
    throw std::invalid_argument("rtos_preset: index must be 1..7, got " +
                                std::to_string(index));
  return static_cast<RtosPreset>(index);
}

RtosPreset rtos_preset_from_string(std::string_view s) {
  std::string upper;
  for (char c : s)
    upper.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  std::string_view digits = upper;
  if (digits.rfind("KRTOS", 0) == 0) digits.remove_prefix(5);  // kRtos4
  else if (digits.rfind("RTOS", 0) == 0) digits.remove_prefix(4);
  if (digits.size() == 1 && digits[0] >= '1' && digits[0] <= '7')
    return static_cast<RtosPreset>(digits[0] - '0');
  throw std::invalid_argument("rtos_preset_from_string: expected "
                              "'RTOS1'..'RTOS7', 'kRtos1'..'kRtos7' or "
                              "'1'..'7', got '" +
                              std::string(s) + "'");
}

DeltaConfig rtos_preset(RtosPreset p) {
  DeltaConfig cfg;  // the base system: 4 x MPC755, 5x5 deadlock geometry
  switch (p) {
    case RtosPreset::kRtos1:
      cfg.deadlock = DeadlockComponent::kPddaSoftware;
      break;
    case RtosPreset::kRtos2:
      cfg.deadlock = DeadlockComponent::kDdu;
      break;
    case RtosPreset::kRtos3:
      cfg.deadlock = DeadlockComponent::kDaaSoftware;
      cfg.stop_on_deadlock = false;  // avoidance keeps the system running
      break;
    case RtosPreset::kRtos4:
      cfg.deadlock = DeadlockComponent::kDau;
      cfg.stop_on_deadlock = false;
      break;
    case RtosPreset::kRtos5:
      break;  // pure RTOS with software priority inheritance
    case RtosPreset::kRtos6:
      cfg.lock = LockComponent::kSoclc;
      break;
    case RtosPreset::kRtos7:
      cfg.memory = MemoryComponent::kSocdmmu;
      break;
  }
  return cfg;
}

std::string rtos_preset_description(RtosPreset p) {
  switch (p) {
    case RtosPreset::kRtos1:
      return "PDDA (Algorithms 1 and 2) in software (Section 4.2.1)";
    case RtosPreset::kRtos2:
      return "DDU in hardware (Sections 4.2.2 and 4.2.3)";
    case RtosPreset::kRtos3:
      return "DAA (Algorithm 3) in software (Section 4.3.1)";
    case RtosPreset::kRtos4:
      return "DAU in hardware (Section 4.3.2)";
    case RtosPreset::kRtos5:
      return "Pure RTOS with priority inheritance support";
    case RtosPreset::kRtos6:
      return "SoCLC with immediate priority ceiling protocol in hardware";
    case RtosPreset::kRtos7:
      return "SoCDMMU in hardware";
  }
  throw std::invalid_argument("rtos_preset_description: unknown preset");
}

DeltaConfig bankers_config() {
  DeltaConfig cfg;
  cfg.deadlock = DeadlockComponent::kBankers;
  cfg.stop_on_deadlock = false;  // avoidance keeps the system running
  return cfg;
}

DeltaConfig wfg_recovery_config() {
  DeltaConfig cfg;
  cfg.deadlock = DeadlockComponent::kWfgRecovery;
  cfg.detection_period = 5000;
  cfg.recovery = rtos::RecoveryPolicy::kAbortLowestCost;
  cfg.stop_on_deadlock = false;  // recovery, not halt, handles detections
  return cfg;
}

std::unique_ptr<Mpsoc> generate(const DeltaConfig& cfg) {
  return std::make_unique<Mpsoc>(cfg.to_mpsoc_config());
}

std::vector<GeneratedFile> generate_hdl(const DeltaConfig& cfg) {
  cfg.validate_or_throw();
  std::vector<GeneratedFile> files;
  files.push_back({"Top.v", generate_top_verilog(cfg)});
  if (cfg.deadlock == DeadlockComponent::kDdu ||
      cfg.deadlock == DeadlockComponent::kDau)
    files.push_back({"ddu_cells.v", hw::generate_ddu_cell_library()});
  // Sharded units emit one small per-cluster module each instead of the
  // monolithic m x n array; cluster geometries come from the same
  // ClusterMap the simulation uses, so HDL and model always agree.
  const deadlock::ClusterMap* shards = nullptr;
  deadlock::ClusterMap shard_map;
  if (cfg.deadlock_clusters > 1 &&
      (cfg.deadlock == DeadlockComponent::kDdu ||
       cfg.deadlock == DeadlockComponent::kDau)) {
    shard_map = deadlock::ClusterMap(cfg.resource_count, cfg.task_count,
                                     cfg.deadlock_clusters);
    shards = &shard_map;
  }
  switch (cfg.deadlock) {
    case DeadlockComponent::kDdu: {
      if (shards) {
        for (std::size_t c = 0; c < shards->clusters(); ++c) {
          const std::size_t mc = shards->resource_count(c);
          const std::size_t nc = shards->process_count(c);
          const std::string name = "ddu_c" + std::to_string(c) + "_" +
                                   std::to_string(mc) + "x" +
                                   std::to_string(nc) + ".v";
          files.push_back({name, hw::generate_ddu_verilog(mc, nc)});
        }
        break;
      }
      const std::string name = "ddu_" + std::to_string(cfg.resource_count) +
                               "x" + std::to_string(cfg.task_count) + ".v";
      files.push_back({name, hw::generate_ddu_verilog(cfg.resource_count,
                                                      cfg.task_count)});
      break;
    }
    case DeadlockComponent::kDau: {
      if (shards) {
        for (std::size_t c = 0; c < shards->clusters(); ++c) {
          const std::size_t mc = shards->resource_count(c);
          const std::size_t nc = shards->process_count(c);
          const std::string name = "dau_c" + std::to_string(c) + "_" +
                                   std::to_string(mc) + "x" +
                                   std::to_string(nc) + ".v";
          files.push_back(
              {name, hw::generate_dau_verilog(mc, nc, cfg.pe_count)});
        }
        break;
      }
      const std::string name = "dau_" + std::to_string(cfg.resource_count) +
                               "x" + std::to_string(cfg.task_count) + ".v";
      files.push_back({name, hw::generate_dau_verilog(
                                 cfg.resource_count, cfg.task_count,
                                 cfg.pe_count)});
      break;
    }
    default:
      break;
  }
  if (cfg.lock == LockComponent::kSoclc)
    files.push_back({"soclc.v", hw::generate_soclc_verilog(cfg.soclc)});
  if (cfg.memory == MemoryComponent::kSocdmmu)
    files.push_back(
        {"socdmmu.v", hw::generate_socdmmu_verilog(cfg.socdmmu)});
  return files;
}

}  // namespace delta::soc
