// Shared plumbing for the host benchmark: clocks, layer spans, the
// deterministic counts a traced pass reads, and the metric sink.
//
// Every timing here is host time measured by the benchmark around its
// own calls into the library's public functions; nothing inside the
// library is instrumented. Every count is simulated state read back
// from soc::EngineReport and the run's obs::MetricsSnapshot, so counts
// repeat exactly across runs, hosts and commits that leave the model
// unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "soc/engine_report.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU seconds so far (user + system, every thread).
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of the process so far, in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();

/// Host-speed probe. Other tenants of a shared host slow it by a third
/// and more for seconds to minutes at a time, and every host time with
/// it; the median pass of one run can differ from the next run's by that
/// much. The probe times a fixed kernel of the benchmark's own
/// (ordered-map inserts, heap allocation and number formatting, the
/// operations the library's runs are made of) at the start and end of
/// every pass and every kPeriodS in between, always between two timed
/// runs. Each stretch of a pass between two samples is then scaled by
/// kNominalS over the mean of the two kernel times: it reads as on a host
/// where the kernel takes kNominalS. The kernel is no code of the
/// library, so a change to the library moves the scaled times as much as
/// the raw ones.
class SpeedProbe {
 public:
  static constexpr double kPeriodS = 0.025;
  /// About the kernel's time on a quiet 4-core Intel Xeon host (GCC 12,
  /// -O2); a busy one took up to 1.9 ms.
  static constexpr double kNominalS = 0.001;

  /// Starts a pass: forgets earlier samples and takes one.
  void begin();
  /// Takes a sample if kPeriodS has passed since the last one ended.
  void tick();
  /// Ends a pass with one more sample.
  void end();

  /// The stretch a run timed now falls in.
  [[nodiscard]] std::size_t stretch() const { return kernel_s_.size() - 1; }
  /// After end(): the factor for times taken in stretch `i`.
  [[nodiscard]] double scale(std::size_t i) const;
  /// After end(): the pass's wall seconds outside the probe's samples,
  /// as measured and with every stretch scaled.
  [[nodiscard]] double raw_s() const;
  [[nodiscard]] double scaled_s() const;
  /// CPU seconds of the samples since begin().
  [[nodiscard]] double spent_cpu_s() const { return spent_cpu_s_; }

 private:
  void sample();

  std::vector<double> kernel_s_;   ///< per sample
  std::vector<double> stretch_s_;  ///< between consecutive samples
  double spent_cpu_s_ = 0.0;
  Clock::time_point last_ = Clock::now();
};

/// Median of `v` (0 when empty). Takes a copy; callers keep their order.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` (0..100) of `v` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// 64-bit FNV-1a, for byte-identity fingerprints of rendered reports.
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Fingerprint& bytes(const void* data, std::size_t n);
  Fingerprint& str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  Fingerprint& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
};

/// The layer boundaries a traced pass puts spans around. Each names one
/// public call (or one short group of calls) of a src/ module.
enum class Span : std::size_t {
  kConfig,     ///< DeltaConfig::to_mpsoc_config + tune hooks
  kConstruct,  ///< soc::Mpsoc constructor
  kBuild,      ///< exp::Workload::build / fuzz::Scenario::install
  kSimulate,   ///< soc::Mpsoc::run
  kCollect,    ///< result harvest (kernel getters, metrics snapshot)
  kProfile,    ///< soc::profile_report + time-series copy
  kTeardown,   ///< soc::Mpsoc destructor
  kReport,     ///< exp::report_to_json / the profile document
  kChrome,     ///< exp::report_trace_to_chrome_json
  kGenerate,   ///< fuzz::random_scenario
  kPair,       ///< fuzz::run_pair
  kCount,
};

/// Accumulated span seconds for one traced pass.
struct Layers {
  double seconds[static_cast<std::size_t>(Span::kCount)] = {};
  /// Per-SUT seconds (campaign only): name -> total over the pass.
  std::vector<std::pair<std::string, double>> sut_seconds;

  double& operator[](Span s) { return seconds[static_cast<std::size_t>(s)]; }
  double operator[](Span s) const {
    return seconds[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double total() const;
  void add_sut(const std::string& name, double s);
  [[nodiscard]] double sut(const std::string& name) const;
};

/// Time one call as a span: adds its wall time to `layers[s]`.
template <class F>
decltype(auto) timed(Layers& layers, Span s, F&& f) {
  struct Guard {
    Layers& l;
    Span s;
    Clock::time_point t0 = Clock::now();
    ~Guard() { l[s] += seconds_between(t0, Clock::now()); }
  } guard{layers, s};
  return f();
}

/// Deterministic simulated-state counts summed over a pass's runs.
struct Counts {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t cycles_total = 0;  ///< simulated application run time
  std::uint64_t scan_sum = 0, scan_count = 0;
  std::uint64_t scheduled_ring = 0, scheduled_overflow = 0;
  std::uint64_t overflow_peak = 0;
  std::uint64_t footprint_bytes = 0;
  std::uint64_t dispatch_inline = 0, dispatch_boxed = 0;
  std::uint64_t service_windows = 0;
  std::uint64_t resched_calls = 0, resched_scans = 0;
  std::uint64_t give_up_episodes = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t deadlock_invocations = 0;
  std::uint64_t ddu_runs = 0, ddu_iterations = 0, dau_ddu_probes = 0;
  std::uint64_t bus_transactions = 0, bus_wait_cycles = 0;
  std::uint64_t mem_allocs = 0;
  std::uint64_t lock_acquires = 0, lock_contended = 0;
  std::uint64_t trace_events = 0, trace_dropped = 0;

  /// Fold one run in. `app_cycles` is its simulated run time (the
  /// deadlock time if it halted, else the last task's finish).
  void add_run(const delta::soc::EngineReport& engine,
               const delta::obs::MetricsSnapshot& metrics,
               std::uint64_t app_cycles, std::uint64_t invocations);

  bool operator==(const Counts&) const = default;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;  ///< a count: printed without a fraction
  std::string note;      ///< human-readable only
};

/// Ordered metric list with the two renderings: a readable table and
/// the JSON `metrics` object.
class MetricSink {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "");
  void count(std::string name, std::uint64_t value, std::string note = "");
  void print_table() const;
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace hostbench
