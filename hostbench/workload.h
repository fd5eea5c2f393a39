// The benchmark's workloads behind one interface.
//
// A workload runs one *pass* the way a user of the library runs it
// (Pass: exp::run_sweep + the report renderers, or the fuzz::run_pair
// loop of a campaign), or a *traced pass* that reproduces the same calls
// one layer down with a span around each (TracedPass). A traced pass
// must reproduce its untraced pass's output exactly; `fingerprint`
// carries that identity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace hostbench {

/// Problem size: `kFull` is the benchmark, `kTiny` the self-test size.
enum class Size { kFull, kTiny };

/// An untraced pass. Its host times leave the probe's samples out and
/// are scaled stretch by stretch (SpeedProbe).
struct Pass {
  double wall_s = 0.0;      ///< the pass, report rendering included
  double raw_wall_s = 0.0;  ///< wall_s unscaled
  double cpu_s = 0.0;  ///< process CPU seconds, scaled as wall_s was
  /// Host time per run in µs (per scenario for the campaign), timed by
  /// the benchmark around each run.
  std::vector<double> run_us;
  std::uint64_t runs = 0;  ///< sweep cells or campaign SUT executions
  std::uint64_t failed = 0;  ///< runs not ok + failed differential pairs
  std::uint64_t fingerprint = 0;  ///< of rendered reports / pair outcomes

  /// Fills the times from a pass `probe` has just ended.
  /// `cpu_s_with_probe` is the process CPU seconds from before
  /// probe.begin() to after probe.end(); `run_us` holds raw times, run i
  /// taken in probe stretch stretch[i].
  void scale_by(const SpeedProbe& probe, double cpu_s_with_probe,
                const std::vector<std::size_t>& stretch) {
    raw_wall_s = probe.raw_s();
    wall_s = probe.scaled_s();
    cpu_s = (cpu_s_with_probe - probe.spent_cpu_s()) * wall_s / raw_wall_s;
    for (std::size_t i = 0; i < run_us.size(); ++i)
      run_us[i] *= probe.scale(stretch[i]);
  }
};

struct TracedPass {
  double wall_s = 0.0;
  Layers layers;
  Counts counts;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;  ///< as Pass, plus mirror mismatches
  std::uint64_t fingerprint = 0;
  double report_mb = 0.0;
  double chrome_mb = 0.0;
  /// profile_trace only: soc::Mpsoc::run seconds of the same cells run
  /// with paper_sweep's settings (no profiler, trace or sampler).
  double plain_simulate_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first run: spec and workload library, grid
  /// expansion, pair lookup. Idempotent; timed by the caller.
  virtual void setup() = 0;
  /// Distinct inputs in one pass (sweep cells, campaign scenarios).
  [[nodiscard]] virtual std::size_t distinct_inputs() const = 0;
  /// One untraced pass, with `probe` sampling host speed through it.
  [[nodiscard]] virtual Pass run(SpeedProbe& probe) = 0;
  [[nodiscard]] virtual TracedPass run_traced() = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Size size);

std::unique_ptr<Workload> make_sweep_workload(bool profile,
                                              std::uint64_t seed, Size size);
std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed,
                                                 Size size);

}  // namespace hostbench
