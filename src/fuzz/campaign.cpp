#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "exp/json.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "fuzz/scenario_json.h"

namespace delta::fuzz {

namespace {

std::vector<std::string> resolve_pairs(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  if (names.empty()) {
    // Only default-campaign pairs: the sharded pairs opt out so the
    // golden-pinned campaign reports keep their pre-sharding pair list.
    for (const BackendPair& p : standard_pairs())
      if (p.default_campaign) out.push_back(p.name);
    return out;
  }
  for (const std::string& n : names) {
    (void)find_pair(n);  // throws on unknown names up front
    out.push_back(n);
  }
  return out;
}

}  // namespace

std::vector<DiffResult> replay_scenario(
    const Scenario& s, const std::vector<std::string>& pair_names,
    const std::string& fault) {
  std::vector<DiffResult> results;
  for (const std::string& n : resolve_pairs(pair_names))
    results.push_back(run_pair(s, find_pair(n), fault));
  return results;
}

CampaignReport run_campaign(const CampaignOptions& opts) {
  CampaignReport report;
  report.seed = opts.seed;
  report.runs = opts.runs;
  report.fault = opts.fault;
  report.pairs = resolve_pairs(opts.pairs);

  std::atomic<std::uint64_t> failing_runs{0};
  std::mutex failures_mu;
  std::vector<CampaignFailure> failures;
  std::mutex engine_mu;
  soc::EngineReport engine_total;
  std::uint64_t engine_suts = 0;

  auto job = [&](std::uint64_t run) {
    // Pure function of (base seed, run index): any thread may pick up
    // any run and the scenario — hence the whole report — is the same.
    const std::uint64_t run_seed = exp::derive_run_seed(
        opts.seed, 0, static_cast<std::size_t>(run), run);
    sim::Rng rng(run_seed);
    Scenario scenario = random_scenario(opts.generator, rng);
    scenario.seed = run_seed;
    scenario.name = "run" + std::to_string(run);

    bool run_failed = false;
    for (const std::string& pair_name : report.pairs) {
      const BackendPair& pair = find_pair(pair_name);
      DiffResult d = run_pair(scenario, pair, opts.fault,
                              opts.engine_stats);
      if (opts.engine_stats) {
        // Primary executions only (shrink probes are excluded): the
        // merge is commutative, so any completion order yields the
        // same roll-up.
        std::lock_guard<std::mutex> lock(engine_mu);
        for (const RunOutcome& o : d.outcomes) {
          if (!o.ok || !o.engine.enabled) continue;
          engine_total.merge(o.engine);
          ++engine_suts;
        }
      }
      if (!d.failed()) continue;
      run_failed = true;

      CampaignFailure f;
      f.run_index = run;
      f.pair = pair_name;
      f.original = scenario;
      ShrinkOptions so;
      so.max_attempts = opts.shrink_attempts;
      f.shrunk = shrink(
          scenario,
          [&](const Scenario& cand) {
            return run_pair(cand, pair, opts.fault).failed();
          },
          so, &f.shrink_stats);
      f.violations = run_pair(f.shrunk, pair, opts.fault).all_violations();
      std::lock_guard<std::mutex> lock(failures_mu);
      failures.push_back(std::move(f));
    }
    if (run_failed) failing_runs.fetch_add(1);
  };
  exp::parallel_for(static_cast<std::size_t>(opts.runs), opts.threads, job);

  // Deterministic order regardless of which thread found what first;
  // keep the lowest run indices when truncating.
  std::sort(failures.begin(), failures.end(),
            [](const CampaignFailure& a, const CampaignFailure& b) {
              if (a.run_index != b.run_index) return a.run_index < b.run_index;
              return a.pair < b.pair;
            });
  report.failing_runs = failing_runs.load();
  if (failures.size() > opts.max_failures) {
    report.failures_truncated = failures.size() - opts.max_failures;
    failures.resize(opts.max_failures);
  }
  report.failures = std::move(failures);
  report.engine = engine_total;
  report.engine_suts = engine_suts;
  return report;
}

std::string campaign_report_json(const CampaignReport& r) {
  exp::JsonWriter w;
  w.begin_object();
  w.key("seed").value(r.seed);
  w.key("runs").value(r.runs);
  w.key("fault").value(r.fault);
  w.key("pairs").begin_array();
  for (const std::string& p : r.pairs) w.value(p);
  w.end_array();
  w.key("failing_runs").value(r.failing_runs);
  w.key("failures_truncated").value(r.failures_truncated);
  w.key("failures").begin_array();
  for (const CampaignFailure& f : r.failures) {
    w.begin_object();
    w.key("run").value(f.run_index);
    w.key("pair").value(f.pair);
    w.key("violations").begin_array();
    for (const std::string& v : f.violations) w.value(v);
    w.end_array();
    w.key("shrink").begin_object();
    w.key("attempts").value(static_cast<std::uint64_t>(f.shrink_stats.attempts));
    w.key("accepted").value(static_cast<std::uint64_t>(f.shrink_stats.accepted));
    w.end_object();
    w.key("original");
    write_scenario_value(w, f.original);
    w.key("shrunk");
    write_scenario_value(w, f.shrunk);
    w.end_object();
  }
  w.end_array();
  // Trailing key, only when collection was on: stripping it (with its
  // preceding comma) restores the stats-off bytes exactly, which is how
  // the neutrality check compares campaign reports.
  if (r.engine.enabled) {
    w.key("engine").begin_object();
    w.key("suts").value(r.engine_suts);
    w.key("totals");
    exp::write_engine_report(w, r.engine, obs::TimeSeries{});
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

}  // namespace delta::fuzz
