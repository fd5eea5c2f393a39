// The delta hardware/software RTOS design framework (paper §2.2, Fig. 3).
//
// The GUI of the paper collects a target architecture (CPU type, PE
// count, task/resource counts), a bus configuration (Figs. 4-6), and a
// selection of hardware RTOS components with their parameters (SoCLC
// lock counts, SoCDMMU block counts, DDU/DAU geometry). From that it
// generates (a) the configured RTOS/MPSoC simulation and (b) the HDL for
// the selected hardware components plus the Verilog top file (Example 1,
// Fig. 7). DeltaConfig is the programmatic form of that GUI state.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bus_config.h"
#include "soc/mpsoc.h"

namespace delta::soc {

/// One violated configuration constraint: which field is wrong and why.
struct ConfigError {
  std::string field;    ///< e.g. "pe_count", "soclc", "bus"
  std::string message;  ///< human-readable explanation
};

/// "field: message" rendering for error lists.
[[nodiscard]] std::string to_string(const ConfigError& e);

/// Framework configuration state (Fig. 3's windows).
struct DeltaConfig {
  // Target Architecture window.
  std::string cpu_type = "MPC755";
  std::size_t pe_count = 4;
  std::size_t task_count = 5;      ///< sizes the deadlock unit columns
  std::size_t resource_count = 5;  ///< sizes the deadlock unit rows

  /// Deadlock-unit sharding: 1 = the paper's monolithic DDU/DAU; > 1
  /// splits the unit into that many per-cluster units plus an
  /// inter-cluster resolver (MpsocConfig::deadlock_clusters). Must not
  /// exceed resource_count.
  std::size_t deadlock_clusters = 1;

  // Bus configuration (Figs. 4-6).
  bus::BusSystemConfig bus = bus::BusSystemConfig::base_mpsoc();

  // Hardware RTOS components (Fig. 3 bottom) + software equivalents.
  DeadlockComponent deadlock = DeadlockComponent::kNone;
  LockComponent lock = LockComponent::kSoftwarePi;
  MemoryComponent memory = MemoryComponent::kMallocFree;
  hw::SoclcConfig soclc;      ///< parameterized SoCLC generator inputs
  hw::SocdmmuConfig socdmmu;  ///< parameterized SoCDMMU generator inputs

  /// Per-lock IPCP ceilings for the SoCLC (MpsocConfig::lock_ceilings).
  /// Either empty (every ceiling defaults to the highest priority) or
  /// exactly short_locks + long_locks entries.
  std::vector<rtos::Priority> lock_ceilings;

  rtos::ServiceCosts costs;
  bool stop_on_deadlock = true;

  /// Deadlock recovery once detection fires (kPddaSoftware/kDdu/
  /// kWfgRecovery). Avoidance components never detect, so a victim
  /// policy there is a configuration error.
  rtos::RecoveryPolicy recovery = rtos::RecoveryPolicy::kNone;

  /// Periodic wait-for-graph scan period in cycles. Required (> 0) for
  /// kWfgRecovery and invalid for every other deadlock component.
  sim::Cycles detection_period = 0;

  /// Banker's max-claims table (kBankers only): claims[t] lists every
  /// resource task slot t may ever request; an empty inner list claims
  /// everything. Must not be taller than task_count.
  std::vector<std::vector<rtos::ResourceId>> claims;

  /// Consistency checks mirroring the GUI's input validation, plus the
  /// rtos::kMaxGeometry bound on every count. Collects
  /// *every* violated constraint (empty vector = valid) so a sweep
  /// author sees all problems in one pass instead of fixing them one
  /// throw at a time.
  [[nodiscard]] std::vector<ConfigError> validate() const;

  /// Old-style validation: throws std::invalid_argument listing all
  /// collected errors when the configuration is invalid.
  void validate_or_throw() const;

  /// The MpsocConfig this framework state generates.
  [[nodiscard]] MpsocConfig to_mpsoc_config() const;

  /// Human-readable configuration summary.
  [[nodiscard]] std::string describe() const;
};

/// Table 3 rows as a typed identifier. The enumerator value is the
/// paper's row number, so `static_cast<int>(RtosPreset::kRtos4) == 4`.
enum class RtosPreset : std::uint8_t {
  kRtos1 = 1,  ///< PDDA (deadlock detection) in software
  kRtos2 = 2,  ///< DDU in hardware
  kRtos3 = 3,  ///< DAA (deadlock avoidance) in software
  kRtos4 = 4,  ///< DAU in hardware
  kRtos5 = 5,  ///< pure RTOS, software priority inheritance
  kRtos6 = 6,  ///< SoCLC with hardware IPCP
  kRtos7 = 7,  ///< SoCDMMU in hardware
};

/// All seven Table 3 rows in paper order, for range-for sweeps.
inline constexpr std::array<RtosPreset, 7> kAllRtosPresets = {
    RtosPreset::kRtos1, RtosPreset::kRtos2, RtosPreset::kRtos3,
    RtosPreset::kRtos4, RtosPreset::kRtos5, RtosPreset::kRtos6,
    RtosPreset::kRtos7};

/// "RTOS4" spelling used in tables, configs and sweep reports.
[[nodiscard]] std::string to_string(RtosPreset p);

/// Parse "RTOS4" / "rtos4" / "4" back to the enum. Throws
/// std::invalid_argument on anything else.
[[nodiscard]] RtosPreset rtos_preset_from_string(std::string_view s);

/// Checked conversion from the paper's 1..7 row number. Throws
/// std::invalid_argument outside that range.
[[nodiscard]] RtosPreset rtos_preset_from_int(int index);

/// Table 3 presets: configured components on top of the pure software
/// RTOS.
[[nodiscard]] DeltaConfig rtos_preset(RtosPreset p);

/// Short description of a Table 3 row ("PDDA in software", ...).
[[nodiscard]] std::string rtos_preset_description(RtosPreset p);

/// Protocol-zoo configurations beyond Table 3 (ROADMAP item 3).
/// Banker's max-claims avoidance in software; callers supply the claims
/// table (or leave it empty for conservative claim-everything).
[[nodiscard]] DeltaConfig bankers_config();
/// Periodic wait-for-graph detection-and-recovery: scan every 5000
/// cycles, abort the lowest-cost victim, keep running (the recovery
/// replaces stop_on_deadlock).
[[nodiscard]] DeltaConfig wfg_recovery_config();

/// Generate (configure + construct) the simulatable RTOS/MPSoC.
std::unique_ptr<Mpsoc> generate(const DeltaConfig& cfg);

/// One generated HDL file.
struct GeneratedFile {
  std::string name;      ///< e.g. "Top.v", "ddu_5x5.v"
  std::string contents;
};

/// Generate the HDL set for the selected hardware components, including
/// the Verilog top file written by Archi_gen (Fig. 7 / Example 1).
std::vector<GeneratedFile> generate_hdl(const DeltaConfig& cfg);

}  // namespace delta::soc
