// large_campaign: a `delta_fuzz --generator large` campaign over the
// ddu-sharded and dau-sharded pairs.
//
// The scenario pool is the campaign the repository's CI large-geometry
// job runs and gates clean: `delta_fuzz --runs 200 --seed 1 --generator
// large --pairs ddu-sharded,dau-sharded`, i.e. runs 0..199 drawn from
// fuzz::large_geometry_params() (up to 64 PEs x 64 resources x 64
// tasks) exactly as fuzz::run_campaign draws them. Every pass runs all
// 200 through fuzz::run_pair for both pairs; the benchmark seed sets
// only their order. Other campaign seeds draw avoidance give-up
// ping-pong cases that need most of the 2e9-cycle run limit (hours) or
// hit it (the caveat in docs/SWEEPS.md), which no bounded benchmark run
// can include. A seeded subset of the pool is not used either: scenario
// costs run from 3 ms to 52 ms, so which scenarios a subset holds moves
// the median scenario time by about a tenth, as much as the host's own
// noise.
//
// The traced pass times random_scenario and run_pair, then re-executes
// every SUT (system under test) one layer down — fuzz::run_scenario's
// config, construction, install, run and harvest — so the SUT's host
// time splits like a sweep run's, and its outcome must match the one
// run_pair reported.
#include <algorithm>
#include <memory>

#include "deadlock/hierarchical.h"
#include "exp/sweep.h"
#include "fuzz/differential.h"
#include "fuzz/scenario.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "workload.h"

namespace hostbench {

namespace {

using delta::fuzz::BackendPair;
using delta::fuzz::DiffResult;
using delta::fuzz::RunOutcome;
using delta::fuzz::Scenario;
using delta::fuzz::SystemUnderTest;

/// The fields of a RunOutcome that simulation decides (violations come
/// from run_scenario's private checks and are compared via run_pair).
void hash_outcome(Fingerprint& f, const RunOutcome& o) {
  f.str(o.sut).u64(o.ok).u64(o.all_finished).u64(o.deadlock_detected);
  f.u64(o.halted).u64(o.hit_limit).u64(o.state_empty).u64(o.oracle_cycle);
  for (bool b : o.finished) f.u64(b);
  for (std::size_t a : o.live_allocs) f.u64(a);
  for (auto v : o.victims) f.u64(v);
  f.u64(o.recoveries).u64(o.lock_acquires).u64(o.lock_releases);
  f.u64(o.dl_requests).u64(o.dl_releases).u64(o.allocs);
  f.u64(o.alloc_failures).u64(o.frees).u64(o.sim_cycles);
}

void hash_pair(Fingerprint& f, const DiffResult& d) {
  f.str(d.pair).u64(d.failed());
  for (const RunOutcome& o : d.outcomes) {
    hash_outcome(f, o);
    for (const std::string& v : o.violations) f.str(v);
  }
  for (const std::string& v : d.cross_violations) f.str(v);
}

std::uint64_t counter(delta::soc::Mpsoc& m, const char* name) {
  return m.observer().metrics.counter(name).value();
}

/// fuzz::run_scenario one layer down, each step inside a span, with
/// engine introspection on as in the traced pass's run_pair. Returns the
/// outcome fields hash_outcome compares; the scenario invariants are
/// left to run_pair. Folding the run into `counts` is left out of the
/// spans, so the SUT's span seconds hold only what run_scenario does.
RunOutcome mirror_sut(const Scenario& s, const SystemUnderTest& sut,
                      Layers& L, Counts& counts) {
  RunOutcome o;
  o.sut = sut.name;
  if (!sut.protocol.empty())
    throw std::invalid_argument("hostbench mirrors preset SUTs only");
  try {
    const delta::soc::MpsocConfig mc = timed(L, Span::kConfig, [&] {
      delta::soc::DeltaConfig cfg = delta::soc::rtos_preset(sut.preset);
      cfg.pe_count = s.pe_count;
      cfg.task_count = s.tasks.size();
      cfg.resource_count = s.resource_count;
      cfg.deadlock_clusters =
          sut.clusters == 0
              ? delta::deadlock::ClusterMap::default_clusters(s.resource_count)
              : std::min(sut.clusters, s.resource_count);
      delta::soc::MpsocConfig c = cfg.to_mpsoc_config();
      c.resources.clear();
      for (std::size_t r = 0; r < s.resource_count; ++r)
        c.resources.push_back({"q" + std::to_string(r + 1), 0});
      c.trace = false;
      c.record_transitions = false;
      c.engine_stats = true;
      return c;
    });
    std::unique_ptr<delta::soc::Mpsoc> m = timed(L, Span::kConstruct, [&] {
      return std::make_unique<delta::soc::Mpsoc>(mc);
    });
    delta::rtos::Kernel& k = m->kernel();
    timed(L, Span::kBuild, [&] { s.install(k); });
    o.sim_cycles =
        timed(L, Span::kSimulate, [&] { return m->run(s.run_limit); });
    timed(L, Span::kCollect, [&] {
      o.all_finished = k.all_finished();
      o.deadlock_detected = k.deadlock_detected();
      o.halted = k.halted();
      o.hit_limit = !m->simulator().idle() && !k.halted();
      o.recoveries = k.recoveries();
      for (delta::rtos::TaskId t = 0; t < k.task_count(); ++t) {
        o.finished.push_back(k.task(t).done());
        o.live_allocs.push_back(k.task(t).allocations.size());
      }
      const delta::rag::StateMatrix* state = k.strategy().state();
      o.state_empty = state == nullptr || state->empty();
      if (state != nullptr) {
        o.oracle_cycle = delta::rag::oracle_has_cycle(*state);
        for (delta::rag::ProcId p : delta::rag::deadlocked_processes(*state))
          o.victims.push_back(static_cast<delta::rtos::TaskId>(p));
      }
      o.lock_acquires = counter(*m, "lock.acquires");
      o.lock_releases = counter(*m, "lock.releases");
      o.dl_requests = counter(*m, "deadlock.requests");
      o.dl_releases = counter(*m, "deadlock.releases");
      o.allocs = counter(*m, "mem.allocs");
      o.alloc_failures = counter(*m, "mem.alloc_failures");
      o.frees = counter(*m, "mem.frees");
    });
    // The benchmark's own bookkeeping, outside every span.
    counts.add_run(m->engine_report(), m->observer().metrics.snapshot(),
                   k.deadlock_detected() ? k.deadlock_time()
                                         : k.last_finish_time(),
                   k.strategy().invocations());
    timed(L, Span::kTeardown, [&] { m.reset(); });
    o.ok = true;
  } catch (const std::exception& e) {
    o.ok = false;
    o.error = e.what();
  }
  return o;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, Size size)
      : seed_(seed), size_(size) {}

  void setup() override {
    params_ = delta::fuzz::large_geometry_params();
    pairs_ = {&delta::fuzz::find_pair("ddu-sharded"),
              &delta::fuzz::find_pair("dau-sharded")};
    runs_.resize(kPool);
    for (std::size_t i = 0; i < kPool; ++i) runs_[i] = i;
    delta::sim::Rng rng(seed_);
    for (std::size_t k = kPool; k > 1; --k)
      std::swap(runs_[k - 1], runs_[rng.below(k)]);
    if (size_ == Size::kTiny) runs_.resize(2);
  }

  std::size_t distinct_inputs() const override { return runs_.size(); }

  Pass run(SpeedProbe& probe) override {
    Pass p;
    Fingerprint f;
    std::vector<std::size_t> stretch;
    const double cpu0 = process_cpu_s();
    probe.begin();
    for (const std::size_t i : runs_) {
      const Clock::time_point r0 = Clock::now();
      const Scenario s = scenario(i);
      for (const BackendPair* pair : pairs_) {
        const DiffResult d = delta::fuzz::run_pair(s, *pair);
        p.runs += d.outcomes.size();
        p.failed += d.failed() ? 1 : 0;
        hash_pair(f, d);
      }
      p.run_us.push_back(seconds_between(r0, Clock::now()) * 1e6);
      stretch.push_back(probe.stretch());
      probe.tick();
    }
    probe.end();
    p.scale_by(probe, process_cpu_s() - cpu0, stretch);
    p.fingerprint = f.h;
    return p;
  }

  TracedPass run_traced() override {
    TracedPass t;
    Layers& L = t.layers;
    Fingerprint f;
    std::uint64_t mismatches = 0;
    const Clock::time_point t0 = Clock::now();
    for (const std::size_t i : runs_) {
      const Scenario s = timed(L, Span::kGenerate, [&] { return scenario(i); });
      for (const BackendPair* pair : pairs_) {
        const DiffResult d = timed(L, Span::kPair, [&] {
          return delta::fuzz::run_pair(s, *pair, "", true);
        });
        t.failed += d.failed() ? 1 : 0;
        hash_pair(f, d);
        for (std::size_t j = 0; j < pair->suts.size(); ++j) {
          const SystemUnderTest& sut = pair->suts[j];
          const double spans0 = L.total();
          const RunOutcome o = mirror_sut(s, sut, L, t.counts);
          L.add_sut(sut.name, L.total() - spans0);
          ++t.runs;
          Fingerprint mine, theirs;
          hash_outcome(mine, o);
          hash_outcome(theirs, d.outcomes[j]);
          mismatches += (!o.ok || mine.h != theirs.h) ? 1 : 0;
        }
      }
    }
    t.wall_s = seconds_between(t0, Clock::now());
    t.failed += mismatches;
    t.fingerprint = f.h;
    return t;
  }

 private:
  /// The CI campaign: its seed and its run count.
  static constexpr std::uint64_t kCampaignSeed = 1;
  static constexpr std::size_t kPool = 200;

  /// Campaign run `i`, drawn as fuzz::run_campaign draws it.
  Scenario scenario(std::size_t i) const {
    const std::uint64_t run_seed =
        delta::exp::derive_run_seed(kCampaignSeed, 0, i, i);
    delta::sim::Rng rng(run_seed);
    Scenario s = delta::fuzz::random_scenario(params_, rng);
    s.seed = run_seed;
    s.name = "run" + std::to_string(i);
    return s;
  }

  std::uint64_t seed_;
  Size size_;
  delta::fuzz::GeneratorParams params_;
  std::vector<const BackendPair*> pairs_;
  std::vector<std::size_t> runs_;  ///< campaign run indices, in pass order
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed,
                                                 Size size) {
  return std::make_unique<CampaignWorkload>(seed, size);
}

}  // namespace hostbench
