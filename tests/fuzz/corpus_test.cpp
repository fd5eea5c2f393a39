// Seed-corpus replay: every scenario in tests/fuzz/corpus/ must parse,
// round-trip byte-identically, and hold its behavioural invariants on
// every backend pair. The corpus pins interesting shapes (the crossed
// R-dl deadlock, lock+alloc churn, joint multi-resource pipelines) so a
// regression in any backend trips a named scenario, not just a random
// seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/scenario_json.h"
#include "soc/mpsoc.h"

#ifndef DELTA_FUZZ_CORPUS_DIR
#error "build must define DELTA_FUZZ_CORPUS_DIR"
#endif

namespace delta::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DELTA_FUZZ_CORPUS_DIR))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Corpus, HasSeeds) { EXPECT_GE(corpus_files().size(), 8u); }

TEST(Corpus, EveryScenarioParsesAndRoundTrips) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const Scenario s = scenario_from_json(slurp(path));
    EXPECT_TRUE(s.validate().empty());
    EXPECT_FALSE(s.tasks.empty());
    // Canonical form: what we write is what we parse.
    EXPECT_EQ(scenario_from_json(scenario_to_json(s)), s);
  }
}

TEST(Corpus, EveryScenarioPassesEveryPair) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const Scenario s = scenario_from_json(slurp(path));
    for (const DiffResult& d : replay_scenario(s, {})) {
      EXPECT_FALSE(d.failed())
          << path.filename() << " on " << d.pair << ": "
          << (d.all_violations().empty() ? "?" : d.all_violations().front());
    }
  }
}

TEST(Corpus, CrossedRequestsSeedActuallyDeadlocksDetection) {
  // Keep the corpus honest: the canonical deadlock seed must really
  // exercise the deadlock path, not silently lose its timing.
  const auto files = corpus_files();
  const auto it =
      std::find_if(files.begin(), files.end(), [](const auto& p) {
        return p.filename() == "crossed_requests.json";
      });
  ASSERT_NE(it, files.end());
  const Scenario s = scenario_from_json(slurp(*it));
  const DiffResult d = run_pair(s, find_pair("pdda-ddu"));
  EXPECT_FALSE(d.failed());
  for (const RunOutcome& o : d.outcomes) {
    EXPECT_FALSE(o.all_finished) << o.sut;
    EXPECT_TRUE(o.deadlock_detected) << o.sut;
  }
}

TEST(Corpus, KernelBugSeedsCompleteOnAvoidancePairs) {
  // Shrunk differential-fuzzer repros for two real kernel/engine bugs:
  //  - giveup_rerequest_race: a give-up stripped a running owner and
  //    re-requested on its behalf; the pending re-request outlived the
  //    task's scripted release, so a later grant parked the resource on
  //    a finished task ("strategy state not empty").
  //  - free_waiters_regrant: a request to a free resource with queued
  //    waiters re-runs grant arbitration, which can commit the grant to
  //    an already-queued *other* waiter; the grantee was dropped on the
  //    way back to the kernel, stranding the winner forever.
  // Avoidance configurations must now complete every task on both.
  for (const char* seed : {"giveup_rerequest_race", "free_waiters_regrant"}) {
    const auto files = corpus_files();
    const auto it = std::find_if(files.begin(), files.end(), [&](const auto& p) {
      return p.stem() == seed;
    });
    ASSERT_NE(it, files.end()) << seed;
    const Scenario s = scenario_from_json(slurp(*it));
    for (const char* pair_name : {"dau-sharded", "daa-dau"}) {
      SCOPED_TRACE(std::string(seed) + " on " + pair_name);
      const DiffResult d = run_pair(s, find_pair(pair_name));
      EXPECT_FALSE(d.failed())
          << (d.all_violations().empty() ? "?" : d.all_violations().front());
      for (const RunOutcome& o : d.outcomes)
        EXPECT_TRUE(o.all_finished) << o.sut;
    }
  }
}

TEST(Corpus, VictimRotationSeedRecoversOnTheZooPairs) {
  // Shrunk repro of the recovery livelock: three tasks contend over two
  // resources so the wait-for cycle re-forms after every restart. A
  // lowest-cost victim policy that ignored prior rollbacks re-picked
  // the freshly restarted task (pc back at 0) at each scan while the
  // knot-holding task starved; with the rollback count dominating the
  // cost the victims rotate and every task completes.
  const auto files = corpus_files();
  const auto it = std::find_if(files.begin(), files.end(), [](const auto& p) {
    return p.filename() == "wfg_victim_rotation.json";
  });
  ASSERT_NE(it, files.end());
  const Scenario s = scenario_from_json(slurp(*it));
  const DiffResult wfg = run_pair(s, find_pair("wfg-recovery"));
  EXPECT_FALSE(wfg.failed())
      << (wfg.all_violations().empty() ? "?" : wfg.all_violations().front());
  ASSERT_EQ(wfg.outcomes.size(), 2u);
  EXPECT_TRUE(wfg.outcomes[0].all_finished);  // recovered, not livelocked
  EXPECT_GE(wfg.outcomes[0].recoveries, 1u);
  // A bounded number of rotations — not one recovery per scan tick.
  EXPECT_LE(wfg.outcomes[0].recoveries, 8u);
  // The Banker side refuses its way around the same knot entirely.
  const DiffResult bank = run_pair(s, find_pair("bankers-vs-daa"));
  EXPECT_FALSE(bank.failed())
      << (bank.all_violations().empty() ? "?" : bank.all_violations().front());
  for (const RunOutcome& o : bank.outcomes) {
    EXPECT_TRUE(o.all_finished) << o.sut;
    EXPECT_FALSE(o.deadlock_detected) << o.sut;
  }
}

TEST(Corpus, LargeShardedSeedPassesShardedPairsAndDeadlocks) {
  // The 64x64 seed is the sharded units' regression anchor: monolithic
  // and sharded DDU/DAU must agree on it, and the detection run must
  // actually reach a deadlock so the verdict comparison is non-vacuous.
  const auto files = corpus_files();
  const auto it =
      std::find_if(files.begin(), files.end(), [](const auto& p) {
        return p.filename() == "large_sharded_64x64.json";
      });
  ASSERT_NE(it, files.end());
  const Scenario s = scenario_from_json(slurp(*it));
  EXPECT_EQ(s.resource_count, 64u);
  EXPECT_GE(s.tasks.size(), 48u);
  for (const char* pair_name : {"ddu-sharded", "dau-sharded"}) {
    const DiffResult d = run_pair(s, find_pair(pair_name));
    EXPECT_FALSE(d.failed())
        << pair_name << ": "
        << (d.all_violations().empty() ? "?" : d.all_violations().front());
    if (std::string(pair_name) == "ddu-sharded") {
      for (const RunOutcome& o : d.outcomes)
        EXPECT_TRUE(o.deadlock_detected) << o.sut;
    }
  }
}

TEST(Corpus, GiveUpStormSeedIdlesUnderSoftwareDaa) {
  // Run 32 of `delta_fuzz --generator large --seed 19` (24 PEs, 19
  // resources, 48 tasks). From about cycle 1.34M every give-up asked of
  // t31 found its grant of q19 still inside an in-flight service window:
  // it released nothing, then retried both livelock-idled resources, and
  // each retry re-livelocked and asked t31 again — the pending give-ups
  // doubled every give_up_delay until millions of events sat at one
  // cycle. With one give-up in flight per victim the software DAA
  // drains in about 12k events.
  const auto files = corpus_files();
  const auto it = std::find_if(files.begin(), files.end(), [](const auto& p) {
    return p.filename() == "giveup_storm_large.json";
  });
  ASSERT_NE(it, files.end());
  const Scenario s = scenario_from_json(slurp(*it));
  const SystemUnderTest& daa = find_pair("daa-dau").suts.front();
  ASSERT_EQ(daa.preset, soc::RtosPreset::kRtos3);
  const auto mpsoc = std::make_unique<soc::Mpsoc>(scenario_config(s, daa));
  s.install(mpsoc->kernel());
  mpsoc->kernel().start();
  sim::Simulator& sim = mpsoc->simulator();
  for (int i = 0; i < 100000 && sim.step(); ++i) {
  }
  EXPECT_TRUE(sim.idle()) << "stopped at cycle " << sim.now();
  EXPECT_TRUE(mpsoc->kernel().all_finished());
}

}  // namespace
}  // namespace delta::fuzz
