// paper_sweep and profile_trace: the delta_sweep and delta_profile flows.
//
// Both expand Table 3's seven presets x the nine built-in workloads x a
// list of seeds. paper_sweep renders exp::report_to_json (what a
// delta_sweep user pays); profile_trace attaches the profiler, the
// windowed sampler and a 262144-event trace ring to every run and
// renders the delta_profile document plus the Chrome trace.
//
// The traced pass mirrors exp::execute_run call for call, timing each
// step, and must reproduce the untraced pass's bytes exactly.
#include <optional>

#include "exp/json.h"
#include "exp/runner.h"
#include "exp/trace_export.h"
#include "exp/workloads.h"
#include "soc/profile.h"
#include "workload.h"

namespace hostbench {

namespace {

using delta::exp::RunResult;
using delta::exp::RunSpec;
using delta::exp::SweepReport;
using delta::exp::SweepSpec;

/// The delta_profile document: one entry per run with its profile.
std::string profile_document(const SweepReport& report) {
  delta::exp::JsonWriter w;
  w.begin_object();
  w.key("runs").begin_array();
  for (const RunResult& r : report.runs) {
    w.begin_object();
    w.key("config").value(r.config);
    w.key("workload").value(r.workload);
    w.key("seed").value(r.seed);
    w.key("ok").value(r.ok);
    if (r.ok) {
      w.key("sim_cycles").value(static_cast<std::uint64_t>(r.sim_cycles));
      w.key("app_run_time").value(static_cast<std::uint64_t>(r.app_run_time));
      w.key("deadlock_detected").value(r.deadlock_detected);
      w.key("profile");
      delta::exp::write_profile(w, r.profile, r.timeseries);
    } else {
      w.key("error").value(r.error);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = w.str();
  doc += '\n';
  return doc;
}

/// exp::execute_run, one layer down: the same calls in the same order,
/// each inside a span. Engine introspection is on so the traced pass can
/// read sim/rtos counts; the report lands in `engine`, not the
/// RunResult, so the rendered bytes stay those of an untraced run.
RunResult mirror_run(const RunSpec& rs, const SweepSpec& spec, Layers& L,
                     delta::soc::EngineReport& engine) {
  RunResult r;
  r.index = rs.index;
  r.config = rs.config->name;
  r.workload = rs.workload->name;
  r.seed = rs.seed;
  r.run_seed = rs.run_seed;
  try {
    delta::soc::MpsocConfig mc = timed(L, Span::kConfig, [&] {
      delta::soc::MpsocConfig c = rs.config->config.to_mpsoc_config();
      if (rs.workload->tune) rs.workload->tune(c);
      if (rs.config->tune) rs.config->tune(c);
      c.trace = spec.trace;
      c.trace_capacity = spec.trace_capacity;
      c.sample_period = spec.sample_period;
      c.engine_stats = true;
      return c;
    });
    std::optional<delta::soc::Mpsoc> soc;
    timed(L, Span::kConstruct, [&] { soc.emplace(mc); });
    timed(L, Span::kBuild, [&] {
      delta::sim::Rng rng(rs.run_seed);
      rs.workload->build(*soc, rng);
    });
    r.sim_cycles = timed(L, Span::kSimulate,
                         [&] { return soc->run(spec.run_limit); });
    timed(L, Span::kCollect, [&] {
      delta::rtos::Kernel& k = soc->kernel();
      r.last_finish = k.last_finish_time();
      r.all_finished = k.all_finished();
      r.deadlock_detected = k.deadlock_detected();
      r.deadlock_time = k.deadlock_time();
      r.app_run_time =
          k.deadlock_detected() ? k.deadlock_time() : k.last_finish_time();
      r.recoveries = k.recoveries();
      r.deadline_misses = k.deadline_misses();
      r.algorithm_avg = k.strategy().algorithm_times().mean();
      r.algorithm_invocations = k.strategy().invocations();
      r.lock_latency = k.lock_latency();
      r.lock_delay = k.lock_delay();
      r.alloc_latency = k.alloc_latency();
      r.mgmt_cycles = k.memory().total_mgmt_cycles();
      r.mgmt_calls = k.memory().call_count();
      r.metrics = soc->observer().metrics.snapshot();
      if (soc->observer().trace.enabled()) {
        r.trace_events = soc->observer().trace.events();
        r.trace_dropped = soc->observer().trace.dropped();
      }
      r.pe_count = mc.pe_count;
      engine = soc->engine_report();
    });
    if (spec.profile)
      timed(L, Span::kProfile, [&] {
        r.profile = delta::soc::profile_report(*soc);
        r.has_profile = true;
        r.timeseries = soc->time_series();
      });
    timed(L, Span::kTeardown, [&] { soc.reset(); });
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(bool profile, std::uint64_t seed, Size size)
      : profile_(profile), seed_(seed), size_(size) {}

  void setup() override {
    spec_ = make_spec(profile_);
    cells_ = delta::exp::expand(spec_).size();
  }

  std::size_t distinct_inputs() const override { return cells_; }

  Pass run(SpeedProbe& probe) override {
    Pass p;
    std::vector<std::size_t> stretch;
    p.run_us.reserve(cells_);
    stretch.reserve(cells_);
    const double cpu0 = process_cpu_s();
    probe.begin();
    Clock::time_point last = Clock::now();
    delta::exp::RunnerOptions opt;
    opt.threads = 1;
    opt.on_result = [&](const RunResult&) {
      p.run_us.push_back(seconds_between(last, Clock::now()) * 1e6);
      stretch.push_back(probe.stretch());
      probe.tick();
      last = Clock::now();
    };
    const SweepReport report = delta::exp::run_sweep(spec_, opt);
    const std::vector<std::string> docs = render(spec_, report, nullptr);
    probe.end();
    p.scale_by(probe, process_cpu_s() - cpu0, stretch);
    p.runs = report.runs.size();
    p.failed = failures(report);
    p.fingerprint = fingerprint(docs);
    return p;
  }

  TracedPass run_traced() override {
    TracedPass t;
    Layers& L = t.layers;
    SweepReport report;
    std::vector<delta::soc::EngineReport> engines;
    const Clock::time_point t0 = Clock::now();
    const std::vector<RunSpec> runs =
        timed(L, Span::kConfig, [&] { return delta::exp::expand(spec_); });
    report.runs.resize(runs.size());
    engines.resize(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
      report.runs[i] = mirror_run(runs[i], spec_, L, engines[i]);
    const std::vector<std::string> docs = render(spec_, report, &L);
    t.wall_s = seconds_between(t0, Clock::now());

    t.runs = report.runs.size();
    t.failed = failures(report);
    t.fingerprint = fingerprint(docs);
    t.report_mb = static_cast<double>(docs[0].size()) / (1024.0 * 1024.0);
    if (docs.size() > 1)
      t.chrome_mb = static_cast<double>(docs[1].size()) / (1024.0 * 1024.0);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = report.runs[i];
      t.counts.add_run(engines[i], r.metrics, r.app_run_time,
                       r.algorithm_invocations);
      t.counts.trace_events += r.trace_events.size();
      t.counts.trace_dropped += r.trace_dropped;
    }
    if (profile_) t.plain_simulate_s = plain_simulate_s();
    return t;
  }

 private:
  /// Seeds per (preset, workload) cell.
  std::size_t seeds_per_cell() const {
    if (size_ == Size::kTiny) return 1;
    return profile_ ? 4 : 100;
  }

  SweepSpec make_spec(bool profile) const {
    SweepSpec spec;
    spec.configs = delta::exp::all_preset_points();
    // As delta_sweep and delta_profile do: the built-in workloads are
    // not meant to freeze detection presets on a deadlock halt.
    for (delta::exp::ConfigPoint& cp : spec.configs)
      cp.config.stop_on_deadlock = false;
    for (const std::string& name : delta::exp::workload_names())
      spec.workloads.push_back(delta::exp::find_workload(name));
    spec.base_seed = seed_;
    spec.seeds.clear();
    for (std::size_t s = 1; s <= seeds_per_cell(); ++s)
      spec.seeds.push_back(s);
    if (profile) {
      spec.profile = true;
      spec.sample_period = 10000;
      spec.trace_capacity = 262144;
    }
    return spec;
  }

  /// The pass's rendered documents: the sweep report, or the profile
  /// document followed by the Chrome trace.
  std::vector<std::string> render(const SweepSpec& spec,
                                  const SweepReport& report,
                                  Layers* L) const {
    Layers scratch;
    Layers& layers = L != nullptr ? *L : scratch;
    std::vector<std::string> docs;
    if (!spec.profile) {
      docs.push_back(timed(layers, Span::kReport, [&] {
        return delta::exp::report_to_json(spec, report);
      }));
      return docs;
    }
    docs.push_back(
        timed(layers, Span::kReport, [&] { return profile_document(report); }));
    docs.push_back(timed(layers, Span::kChrome, [&] {
      return delta::exp::report_trace_to_chrome_json(report);
    }));
    return docs;
  }

  std::uint64_t failures(const SweepReport& report) const {
    std::uint64_t n = 0;
    for (const RunResult& r : report.runs)
      n += (!r.ok || (profile_ && !r.has_profile)) ? 1 : 0;
    return n;
  }

  static std::uint64_t fingerprint(const std::vector<std::string>& docs) {
    Fingerprint f;
    for (const std::string& d : docs) f.str(d);
    return f.h;
  }

  /// Simulate seconds of the same cells with paper_sweep's settings, for
  /// obs.simulate_overhead. Not part of the traced pass's wall time.
  double plain_simulate_s() const {
    const SweepSpec plain = make_spec(false);
    Layers L;
    delta::soc::EngineReport engine;
    for (const RunSpec& rs : delta::exp::expand(plain))
      (void)mirror_run(rs, plain, L, engine);
    return L[Span::kSimulate];
  }

  bool profile_;
  std::uint64_t seed_;
  Size size_;
  SweepSpec spec_;
  std::size_t cells_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(bool profile,
                                              std::uint64_t seed, Size size) {
  return std::make_unique<SweepWorkload>(profile, seed, size);
}

}  // namespace hostbench
