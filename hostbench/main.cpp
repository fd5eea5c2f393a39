// hostbench — end-to-end host benchmark of the delta-rtos library.
//
//   hostbench --workload paper_sweep|large_campaign|profile_trace
//             --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--commit SHA] [--dirty 0|1]
//
// --trace 0 measures the end-to-end metrics: one warm-up pass, then
// untraced passes, each after a timed set-up, until S seconds have been
// measured. Each host time is scaled to a nominal host speed by the
// SpeedProbe sampled through its pass, then taken as a median over the
// faster half of the passes, set-up as a median over every set-up.
// --trace 1 alternates traced and untraced passes for S seconds and
// prints the unscaled per-layer split. Either way every pass is checked
// (every run ok, every differential pair clean, the traced mirror
// byte-identical to the untraced pass), and the last line of standard
// output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 when any check fails and 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "workload.h"

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_FLAGS
#define HOSTBENCH_FLAGS "unknown"
#endif

namespace hostbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_sweep", "large_campaign", "profile_trace"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
  if (name == "paper_sweep") return make_sweep_workload(false, seed, size);
  if (name == "profile_trace") return make_sweep_workload(true, seed, size);
  if (name == "large_campaign") return make_campaign_workload(seed, size);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--commit SHA] "
               "[--dirty 0|1]\nworkloads: paper_sweep large_campaign "
               "profile_trace\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = v == "1";
      else if (a == "--size") o.size = v == "tiny" ? Size::kTiny : Size::kFull;
      else if (a == "--commit") o.commit = v;
      else if (a == "--dirty") o.dirty = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (std::find(workload_names().begin(), workload_names().end(),
                o.workload) == workload_names().end())
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

constexpr bool kOptimised =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

void print_stamp(const Options& o) {
  std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              o.size == Size::kTiny ? "tiny" : "full");
  std::printf("build: compiler=%s type=%s flags=\"%s\" optimised=%s\n",
              HOSTBENCH_COMPILER, HOSTBENCH_BUILD_TYPE, HOSTBENCH_FLAGS,
              kOptimised ? "yes" : "NO");
  std::printf("host: cores=%u commit=%s dirty=%s workers=1\n",
              std::thread::hardware_concurrency(), o.commit.c_str(),
              o.dirty.c_str());
  if (!kOptimised)
    std::printf("WARNING: non-optimised build; host times are not "
                "comparable with optimised results\n");
  std::printf("note: accuracy against the paper is gated by bench/table* "
              "and the goldens (scripts/check_goldens.sh), not by this "
              "benchmark; the counts below only show whether the model "
              "changed\n");
}

/// Tally of correctness over every pass of the process.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference = 0;  ///< fingerprint of the first pass
  bool have_reference = false;

  /// Count a pass's runs and failures; a fingerprint differing from the
  /// first pass's counts as one more failure.
  void check(std::uint64_t runs, std::uint64_t fails, std::uint64_t fp) {
    attempted += runs;
    failed += fails;
    if (!have_reference) {
      reference = fp;
      have_reference = true;
    } else if (fp != reference) {
      ++failed;
    }
  }
};

/// Highest of the standard percentiles with at least ten of a pass's
/// `distinct` inputs beyond it; fixed per workload, so it is the same on
/// every run.
double tail_percentile(std::size_t distinct) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(distinct) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

std::string fmt(const char* f, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

void end_to_end(const Options& o, Workload& w, MetricSink& out, Gate& gate) {
  SpeedProbe probe;
  // Set-up takes microseconds to milliseconds, so it is repeated: five
  // times up front and once before every pass, so that its median samples
  // the same stretch of host time as the passes do. Each set-up is scaled
  // by the mean factor of the pass that follows it.
  std::vector<double> setups;
  std::size_t scaled_setups = 0;
  auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  auto scale_setups = [&](const Pass& p) {
    for (; scaled_setups < setups.size(); ++scaled_setups)
      setups[scaled_setups] *= p.wall_s / p.raw_wall_s;
  };
  for (int i = 0; i < 5; ++i) timed_setup();

  const Pass warm = w.run(probe);  // checked, not timed
  gate.check(warm.runs, warm.failed, warm.fingerprint);
  scale_setups(warm);

  std::vector<Pass> passes;
  double measured = 0.0;
  while (measured < o.seconds) {
    timed_setup();
    passes.push_back(w.run(probe));
    const Pass& p = passes.back();
    gate.check(p.runs, p.failed, p.fingerprint);
    scale_setups(p);
    measured += p.raw_wall_s;
  }

  // Each figure is the median over the faster half of the passes (by
  // scaled wall time). The probe removes the host's drift between and
  // within passes; what it misses is interference shorter than its
  // period, which only adds time, so the faster passes are the program's
  // own cost, and a slower program slows them as much as any.
  std::sort(passes.begin(), passes.end(), [](const Pass& a, const Pass& b) {
    return a.wall_s < b.wall_s;
  });
  const std::size_t all_passes = passes.size();
  passes.resize((all_passes + 1) / 2);
  std::vector<double> rate, raw_rate, scale, cpu;
  for (const Pass& p : passes) {
    rate.push_back(static_cast<double>(p.runs) / p.wall_s);
    raw_rate.push_back(static_cast<double>(p.runs) / p.raw_wall_s);
    scale.push_back(p.wall_s / p.raw_wall_s);
    cpu.push_back(p.cpu_s);
  }
  // Every pass times the same inputs in the same order. Each input's time
  // is its median over those passes, so it counts as slow only when it is
  // slow in most of them: a moment of interference hits one pass's copy.
  const std::size_t inputs = passes.front().run_us.size();
  std::vector<double> per_input(inputs), copies;
  for (std::size_t i = 0; i < inputs; ++i) {
    copies.clear();
    for (const Pass& p : passes) copies.push_back(p.run_us[i]);
    per_input[i] = median(copies);
  }
  const double tail_p = tail_percentile(w.distinct_inputs());
  const std::string over = "median of the faster " +
                           std::to_string(passes.size()) + " of " +
                           std::to_string(all_passes) + " passes";
  const std::string of_inputs = " of n=" + std::to_string(inputs) +
                                " inputs, each the " + over;
  std::printf("host speed: times are scaled to a %.3f ms probe kernel; "
              "the median factor was %.4f\n",
              SpeedProbe::kNominalS * 1e3, median(scale));
  out.add("runs_per_s", median(rate), "1/s",
          over + fmt(" (%.3f s measured", measured) +
              fmt(", unscaled %.6g)", median(raw_rate)));
  out.add("cpu_s", median(cpu), "s", "per pass, " + over);
  out.add("run_p50_us", median(per_input), "us", "p50" + of_inputs);
  out.add("run_tail_us", percentile(per_input, tail_p), "us",
          fmt("p%g", tail_p) + of_inputs + " (>= 10 beyond it)");
  out.add("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " setups");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

double per_run_us(double seconds, std::uint64_t runs) {
  return runs == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(runs);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void per_layer(const Options& o, Workload& w, MetricSink& out, Gate& gate) {
  // Per-layer times are unscaled. The untraced passes still sample the
  // probe; their raw wall time leaves its samples out.
  SpeedProbe probe;
  w.setup();
  const Pass first = w.run(probe);
  gate.check(first.runs, first.failed, first.fingerprint);

  std::vector<TracedPass> traced;
  std::vector<double> untraced_wall;
  double measured = 0.0;
  while (measured < o.seconds) {
    traced.push_back(w.run_traced());
    const TracedPass& t = traced.back();
    gate.check(t.runs, t.failed, t.fingerprint);
    if (!(t.counts == traced.front().counts)) ++gate.failed;
    const Pass p = w.run(probe);
    gate.check(p.runs, p.failed, p.fingerprint);
    untraced_wall.push_back(p.raw_wall_s);
    measured += t.wall_s + p.raw_wall_s;
  }

  // Span seconds summed over every traced pass; pass-level figures are
  // medians over passes.
  Layers sum;
  std::uint64_t runs = 0;
  std::vector<double> wall, report, chrome, generate, check, coverage, plain;
  for (const TracedPass& t : traced) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i)
      sum.seconds[i] += t.layers.seconds[i];
    for (const auto& [name, s] : t.layers.sut_seconds) sum.add_sut(name, s);
    runs += t.runs;
    wall.push_back(t.wall_s);
    report.push_back(t.layers[Span::kReport]);
    chrome.push_back(t.layers[Span::kChrome]);
    generate.push_back(t.layers[Span::kGenerate] * 1e3);
    double suts = 0.0;
    for (const auto& [name, s] : t.layers.sut_seconds) suts += s;
    check.push_back(t.layers[Span::kPair] - suts);
    coverage.push_back(t.layers.total() / t.wall_s);
    plain.push_back(t.plain_simulate_s);
  }
  const auto n_passes = static_cast<double>(traced.size());
  const Counts& c = traced.front().counts;
  const TracedPass& any = traced.front();
  auto us = [&](Span s) { return per_run_us(sum[s], runs); };

  const double fixed = sum[Span::kConfig] + sum[Span::kConstruct] +
                       sum[Span::kBuild] + sum[Span::kCollect] +
                       sum[Span::kTeardown];
  const double per_run_total = fixed + sum[Span::kSimulate] +
                               sum[Span::kProfile];
  // Spans are summed over traced passes; counts are of one pass.
  const double events_all = static_cast<double>(c.events) * n_passes;

  out.add("soc.config_us_per_run", us(Span::kConfig), "us");
  out.add("soc.construct_us_per_run", us(Span::kConstruct), "us");
  out.add("soc.teardown_us_per_run", us(Span::kTeardown), "us");
  out.add("soc.simulate_us_per_run", us(Span::kSimulate), "us");
  out.add("soc.fixed_cost_share", ratio(fixed, per_run_total), "ratio",
          "config+construct+build+collect+teardown over per-run total");
  out.add("soc.host_ns_per_event",
          ratio(sum[Span::kSimulate] * 1e9, events_all), "ns");
  out.add("apps.build_us_per_run", us(Span::kBuild), "us");
  out.add("exp.collect_us_per_run", us(Span::kCollect), "us");
  out.add("exp.report_s", median(report), "s");
  out.add("exp.report_mb", any.report_mb, "MB");
  out.add("exp.chrome_s", median(chrome), "s");
  out.add("exp.chrome_mb", any.chrome_mb, "MB");

  out.count("sim.events", c.events);
  out.add("sim.events_per_run",
          ratio(static_cast<double>(c.events), static_cast<double>(c.runs)),
          "count");
  out.add("sim.scan_distance_mean",
          ratio(static_cast<double>(c.scan_sum),
                static_cast<double>(c.scan_count)),
          "cycles");
  out.add("sim.overflow_schedule_share",
          ratio(static_cast<double>(c.scheduled_overflow),
                static_cast<double>(c.scheduled_ring + c.scheduled_overflow)),
          "ratio");
  out.count("sim.overflow_peak", c.overflow_peak);
  out.add("sim.queue_footprint_kb_per_run",
          ratio(static_cast<double>(c.footprint_bytes) / 1024.0,
                static_cast<double>(c.runs)),
          "KB");
  out.add("sim.boxed_dispatch_share",
          ratio(static_cast<double>(c.dispatch_boxed),
                static_cast<double>(c.dispatch_inline + c.dispatch_boxed)),
          "ratio");
  out.count("sim.cycles_total", c.cycles_total);

  out.count("rtos.service_windows", c.service_windows);
  out.add("rtos.resched_scan_share",
          ratio(static_cast<double>(c.resched_scans),
                static_cast<double>(c.resched_calls)),
          "ratio");
  out.count("rtos.give_up_episodes", c.give_up_episodes);
  out.count("rtos.context_switches", c.context_switches);

  for (const char* sut : {"PDDA", "DDU", "SDDU", "DAA", "DAU", "SDAU"})
    out.add(std::string("deadlock.sut_s.") + sut, sum.sut(sut) / n_passes,
            "s", "per pass");
  out.count("deadlock.invocations", c.deadlock_invocations);
  out.count("hw.ddu_runs", c.ddu_runs);
  out.count("hw.ddu_iterations", c.ddu_iterations);
  out.count("hw.dau_ddu_probes", c.dau_ddu_probes);

  out.add("fuzz.generate_ms", median(generate), "ms", "per pass");
  out.add("fuzz.check_s", median(check), "s",
          "run_pair minus its SUT re-executions, per pass");

  out.add("obs.profile_us_per_run", us(Span::kProfile), "us");
  out.count("obs.trace_events", c.trace_events);
  out.count("obs.trace_dropped", c.trace_dropped);
  out.add("obs.simulate_overhead",
          ratio(sum[Span::kSimulate] / n_passes, median(plain)), "ratio",
          "simulate with profiler+trace over simulate without, same cells");

  out.count("bus.transactions", c.bus_transactions);
  out.count("bus.wait_cycles", c.bus_wait_cycles);
  out.count("mem.allocs", c.mem_allocs);
  out.count("lock.acquires", c.lock_acquires);
  out.count("lock.contended", c.lock_contended);

  out.add("bench.trace_overhead_share",
          median(wall) / median(untraced_wall) - 1.0, "ratio");
  const double cov = median(coverage);
  out.add("bench.span_coverage", cov, "ratio",
          "layer spans over traced-pass wall time");
  // The split must account for where the time went.
  if (cov < 0.9 || cov > 1.0 + 1e-9) ++gate.failed;
  std::printf("traced passes: %zu, runs mirrored per pass: %llu\n",
              traced.size(),
              static_cast<unsigned long long>(traced.front().runs));
}

}  // namespace

}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  const Options o = parse(argc, argv);
  print_stamp(o);
  MetricSink out;
  Gate gate;
  try {
    const std::unique_ptr<Workload> w = make_workload(o.workload, o.seed,
                                                      o.size);
    if (o.trace)
      per_layer(o, *w, out, gate);
    else
      end_to_end(o, *w, out, gate);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
  const bool correct = gate.failed == 0 && gate.attempted > 0;
  out.print_table();
  std::printf("  %-34s %22.17g %-6s  %llu of %llu attempted\n", "fail_ratio",
              ratio(static_cast<double>(gate.failed),
                    static_cast<double>(gate.attempted)),
              "-", static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed),
              out.json().c_str());
  return correct ? 0 : 1;
}
