// Byte-exact golden of large-geometry SUT outcomes.
//
// The report goldens (tests/golden/*.json via scripts/check_goldens.sh)
// pin 4x4 paper-scale runs, and the fuzz campaign golden records only
// pass/fail. Nothing else pins what a 64x64-scale system *computes*:
// completion cycles, per-task finish cycles, and the cycles the
// deadlock layer charges to the units and the PEs. This test runs fixed
// `delta_fuzz --generator large` scenarios (campaign seed 1, runs
// 0..kScenarios-1, drawn exactly as fuzz::run_campaign draws them)
// through the six deadlock SUTs of the ddu-sharded and dau-sharded pairs
// and compares the rendered outcomes with
// tests/golden/large_geometry_outcomes.json byte for byte.
//
// Regenerate (only when a change is meant to alter simulated cycles,
// and say so in the change log):
//   DELTA_UPDATE_GOLDEN=1 ./integration_large_geometry_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "exp/sweep.h"
#include "fuzz/differential.h"
#include "fuzz/scenario.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "soc/mpsoc.h"

namespace delta {
namespace {

constexpr std::uint64_t kCampaignSeed = 1;
constexpr std::size_t kScenarios = 24;
// Large enough to keep every traced event of these runs (checked).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

const char* const kCounters[] = {
    "deadlock.requests",  "deadlock.releases",
    "ddu.runs",           "ddu.iterations",
    "dau.commands",       "dau.ddu_probes",
    "sharded_ddu.runs",   "sharded_ddu.local_iterations",
    "sharded_ddu.escalations",
    "sharded_dau.commands", "sharded_dau.probes",
    "sharded_dau.escalations",
    "bus.transactions",
};

fuzz::Scenario campaign_scenario(std::size_t i) {
  const std::uint64_t run_seed =
      exp::derive_run_seed(kCampaignSeed, 0, i, i);
  sim::Rng rng(run_seed);
  fuzz::Scenario s =
      fuzz::random_scenario(fuzz::large_geometry_params(), rng);
  s.seed = run_seed;
  s.name = "run" + std::to_string(i);
  return s;
}

/// fuzz::run_scenario's system, plus the structured trace so the
/// per-event PE and unit cycle charges can be summed.
void render_run(const fuzz::Scenario& s, const fuzz::SystemUnderTest& sut,
                std::ostream& os) {
  soc::MpsocConfig mc = fuzz::scenario_config(s, sut);
  mc.trace_capacity = kTraceCapacity;
  const auto sys = std::make_unique<soc::Mpsoc>(mc);
  rtos::Kernel& k = sys->kernel();
  s.install(k);
  const sim::Cycles end = sys->run(s.run_limit);

  const obs::TraceRecorder& tr = sys->observer().trace;
  ASSERT_EQ(tr.dropped(), 0u) << s.name << " " << sut.name;
  std::uint64_t pe_sum = 0, unit_sum = 0, dl_events = 0;
  for (const obs::Event& e : tr.events()) {
    if (e.kind != obs::EventKind::kDeadlockRequest &&
        e.kind != obs::EventKind::kDeadlockRelease)
      continue;
    ++dl_events;
    pe_sum += e.dur;
    unit_sum += e.a1;
  }

  os << "    {\"scenario\": \"" << s.name << "\", \"sut\": \"" << sut.name
     << "\", \"pes\": " << s.pe_count << ", \"resources\": "
     << s.resource_count << ", \"tasks\": " << s.tasks.size() << ",\n";
  os << "     \"end_cycle\": " << end
     << ", \"last_finish\": " << k.last_finish_time()
     << ", \"all_finished\": " << k.all_finished()
     << ", \"deadlock\": " << k.deadlock_detected()
     << ", \"deadlock_time\": " << k.deadlock_time()
     << ", \"recoveries\": " << k.recoveries() << ",\n";
  os << "     \"finish\": [";
  for (rtos::TaskId t = 0; t < k.task_count(); ++t) {
    const sim::Cycles f = k.task(t).finished_at;
    os << (t ? ", " : "");
    if (f == sim::kNeverCycles) os << "null";
    else os << f;
  }
  os << "],\n";
  const double algo = k.strategy().algorithm_times().sum();
  os << "     \"dl_events\": " << dl_events << ", \"pe_cycles\": " << pe_sum
     << ", \"unit_cycles\": " << unit_sum
     << ", \"invocations\": " << k.strategy().invocations()
     << ", \"algo_cycles\": " << static_cast<std::uint64_t>(algo)
     << ",\n     \"counters\": {";
  bool first = true;
  for (const char* name : kCounters) {
    os << (first ? "" : ", ") << '"' << name << "\": "
       << sys->observer().metrics.counter(name).value();
    first = false;
  }
  os << "}}";
}

std::string render_golden() {
  std::ostringstream os;
  os << "{\"campaign_seed\": " << kCampaignSeed << ", \"runs\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const fuzz::Scenario s = campaign_scenario(i);
    for (const char* pair : {"ddu-sharded", "dau-sharded"}) {
      for (const fuzz::SystemUnderTest& sut : fuzz::find_pair(pair).suts) {
        os << (first ? "" : ",\n");
        first = false;
        render_run(s, sut, os);
      }
    }
  }
  os << "\n]}\n";
  return os.str();
}

TEST(LargeGeometryGolden, OutcomesByteIdentical) {
  const std::string path =
      std::string(DELTA_GOLDEN_DIR) + "/large_geometry_outcomes.json";
  const std::string got = render_golden();
  if (std::getenv("DELTA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;
  // Point at the first differing line rather than dumping both files.
  std::istringstream a(want.str()), b(got);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) break;
    if (!ha || !hb || la != lb) {
      FAIL() << "golden mismatch at line " << line << "\n  want: " << la
             << "\n  got:  " << lb;
    }
  }
}

}  // namespace
}  // namespace delta
