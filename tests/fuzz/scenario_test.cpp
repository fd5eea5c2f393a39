// Scenario model: generator well-formedness, validation, determinism,
// and the JSON repro round trip.
#include <gtest/gtest.h>

#include "fuzz/scenario.h"
#include "fuzz/scenario_json.h"

namespace delta::fuzz {
namespace {

Scenario tiny_scenario() {
  Scenario s;
  s.name = "tiny";
  s.pe_count = 2;
  s.resource_count = 2;
  s.lock_count = 1;
  ScenarioTask t;
  t.name = "t0";
  t.pe = 1;
  t.priority = 3;
  t.release_time = 500;
  Step req;
  req.kind = Step::Kind::kRequest;
  req.resources = {0, 1};
  t.steps.push_back(req);
  Step comp;
  comp.kind = Step::Kind::kCompute;
  comp.cycles = 1000;
  t.steps.push_back(comp);
  Step alloc;
  alloc.kind = Step::Kind::kAlloc;
  alloc.bytes = 256;
  alloc.slot = "buf";
  t.steps.push_back(alloc);
  Step lock;
  lock.kind = Step::Kind::kLock;
  lock.lock = 0;
  t.steps.push_back(lock);
  Step unlock = lock;
  unlock.kind = Step::Kind::kUnlock;
  t.steps.push_back(unlock);
  Step free_;
  free_.kind = Step::Kind::kFree;
  free_.slot = "buf";
  t.steps.push_back(free_);
  Step rel;
  rel.kind = Step::Kind::kRelease;
  rel.resources = {1, 0};
  t.steps.push_back(rel);
  s.tasks.push_back(t);
  return s;
}

TEST(Scenario, GeneratorAlwaysProducesValidScenarios) {
  GeneratorParams params;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    const Scenario s = random_scenario(params, rng);
    EXPECT_TRUE(s.validate().empty())
        << "seed " << seed << ": " << s.validate().front();
    EXPECT_GE(s.tasks.size(), params.min_tasks);
    EXPECT_LE(s.tasks.size(), params.max_tasks);
    for (const ScenarioTask& t : s.tasks) EXPECT_LT(t.pe, s.pe_count);
  }
}

TEST(Scenario, GeneratorIsDeterministicPerSeed) {
  GeneratorParams params;
  sim::Rng a(42), b(42), c(43);
  EXPECT_EQ(random_scenario(params, a), random_scenario(params, b));
  sim::Rng a2(42);
  EXPECT_NE(random_scenario(params, a2), random_scenario(params, c));
}

TEST(Scenario, LargeGeometryParamsProduceValidLargeScenarios) {
  const GeneratorParams params = large_geometry_params();
  EXPECT_EQ(params.max_resources, 64u);
  EXPECT_EQ(params.max_tasks, 64u);
  // The default-campaign stream is a pure function of GeneratorParams'
  // defaults; the large profile must be a separate object, not a
  // mutation of them.
  EXPECT_EQ(GeneratorParams{}.max_resources, 6u);
  EXPECT_EQ(GeneratorParams{}.max_tasks, 6u);
  bool saw_big = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    const Scenario s = random_scenario(params, rng);
    EXPECT_TRUE(s.validate().empty())
        << "seed " << seed << ": " << s.validate().front();
    EXPECT_GE(s.resource_count, params.min_resources);
    EXPECT_LE(s.resource_count, params.max_resources);
    saw_big |= s.resource_count >= 48 && s.tasks.size() >= 48;
  }
  EXPECT_TRUE(saw_big) << "large profile never drew a large geometry";
}

TEST(Scenario, ValidateCatchesStructuralMistakes) {
  Scenario s = tiny_scenario();
  ASSERT_TRUE(s.validate().empty());

  Scenario bad = s;
  bad.tasks[0].steps.pop_back();  // drop the release
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.tasks[0].steps[0].resources = {0, 0};  // duplicate in one request
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.tasks[0].steps[0].resources = {0, 7};  // out of range
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.tasks[0].pe = 9;
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  Step nested;
  nested.kind = Step::Kind::kLock;
  nested.lock = 0;
  bad.tasks[0].steps.insert(bad.tasks[0].steps.begin() + 4, nested);
  EXPECT_FALSE(bad.validate().empty());  // re-entered lock
}

TEST(Scenario, ValidateRejectsAllocLargerThanSmallestPresetHeap) {
  // The software heap (8 MiB) is smaller than SoCDMMU's 256 x 64 KiB.
  EXPECT_EQ(smallest_preset_heap_bytes(), 8u * 1024 * 1024);
  Scenario s = tiny_scenario();
  s.tasks[0].steps[2].bytes = smallest_preset_heap_bytes();
  EXPECT_TRUE(s.validate().empty());  // exactly the bound is structural

  s.tasks[0].steps[2].bytes = 1'000'000'000'000ULL;
  const std::vector<std::string> errors = s.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front(),
            "task 0 (t0): step 2 allocates 1000000000000 bytes, more than "
            "the 8388608-byte heap of the smallest preset");
}

TEST(ScenarioJson, RoundTripPreservesEverything) {
  GeneratorParams params;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::Rng rng(seed);
    Scenario s = random_scenario(params, rng);
    s.seed = 0xDEADBEEFCAFE0000ULL + seed;  // exercise the full 64 bits
    s.name = "seed" + std::to_string(seed);
    const std::string json = scenario_to_json(s);
    EXPECT_EQ(scenario_from_json(json), s) << json;
    // Byte-stable: serializing the parse yields identical bytes.
    EXPECT_EQ(scenario_to_json(scenario_from_json(json)), json);
  }
}

TEST(ScenarioJson, WideIdsAndFullRangeIntegersRoundTripExactly) {
  // 256-resource geometries put ids and counts beyond what a
  // double-based JSON number path would keep exact; everything must
  // survive integer-exact.
  Scenario s;
  s.name = "wide";
  s.seed = 0xFFFF'FFFF'FFFF'FFFFULL;  // largest u64: doubles would round
  s.pe_count = 64;
  s.resource_count = 256;
  s.lock_count = 64;
  s.run_limit = 9'007'199'254'740'993ULL;  // 2^53 + 1: not a double
  ScenarioTask t;
  t.name = "t0";
  t.pe = 63;
  t.release_time = 9'007'199'254'740'995ULL;
  Step req;
  req.kind = Step::Kind::kRequest;
  req.resources = {0, 255};
  Step rel;
  rel.kind = Step::Kind::kRelease;
  rel.resources = {0, 255};
  Step lk;
  lk.kind = Step::Kind::kLock;
  lk.lock = 63;
  Step un;
  un.kind = Step::Kind::kUnlock;
  un.lock = 63;
  t.steps = {req, lk, un, rel};
  s.tasks.push_back(t);
  ASSERT_TRUE(s.validate().empty());
  const std::string json = scenario_to_json(s);
  EXPECT_NE(json.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(json.find("9007199254740993"), std::string::npos);
  EXPECT_NE(json.find("9007199254740995"), std::string::npos);
  const Scenario back = scenario_from_json(json);
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.seed, 0xFFFF'FFFF'FFFF'FFFFULL);
  EXPECT_EQ(back.run_limit, 9'007'199'254'740'993ULL);
  EXPECT_EQ(back.tasks[0].steps[0].resources[1], 255u);
}

TEST(ScenarioJson, HandWrittenInputIsAccepted) {
  const std::string json = R"({
    "name": "hand",
    "seed": 18446744073709551615,
    "comment": "unknown keys are skipped",
    "geometry": {"pes": 2, "resources": 2, "locks": 0},
    "tasks": [
      {"name": "a", "pe": 0, "priority": 1, "release": 0,
       "steps": [{"op": "request", "resources": [0]},
                 {"op": "compute", "cycles": 100},
                 {"op": "release", "resources": [0]}]}
    ]
  })";
  const Scenario s = scenario_from_json(json);
  EXPECT_EQ(s.name, "hand");
  EXPECT_EQ(s.seed, 18446744073709551615ULL);  // 64-bit seeds survive
  ASSERT_EQ(s.tasks.size(), 1u);
  EXPECT_EQ(s.tasks[0].steps.size(), 3u);
}

TEST(ScenarioJson, MalformedInputReportsPosition) {
  EXPECT_THROW((void)scenario_from_json("{"), std::invalid_argument);
  EXPECT_THROW((void)scenario_from_json("[]"), std::invalid_argument);
  EXPECT_THROW((void)scenario_from_json("{\"seed\": 1.5}"),
               std::invalid_argument);
  try {
    (void)scenario_from_json("{\n  \"tasks\": [{\"op\": }]\n}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // Structurally valid JSON but an invalid scenario.
  EXPECT_THROW((void)scenario_from_json(
                   R"({"geometry": {"pes": 0, "resources": 1}, "tasks": [
                       {"name": "a", "pe": 0, "steps": []}]})"),
               std::invalid_argument);
  // Hostile geometry: rejected by name before any system is sized.
  for (const char* key : {"pes", "resources", "locks"}) {
    const std::string json = std::string(R"({"geometry": {")") + key +
                             R"(": 3000000000}, "tasks": [
                       {"name": "a", "pe": 0, "steps": []}]})";
    try {
      (void)scenario_from_json(json);
      FAIL() << "expected invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("geometry bound"),
                std::string::npos)
          << e.what();
    }
  }
  Scenario crowd;
  crowd.tasks.resize(rtos::kMaxGeometry + 1);
  const std::vector<std::string> errors = crowd.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("geometry bound"), std::string::npos);
}

TEST(ScenarioJson, InstallRunsOnAKernel) {
  // The tiny scenario must install and execute as a real program.
  const Scenario s = tiny_scenario();
  ASSERT_TRUE(s.validate().empty());
  sim::Simulator sim;
  bus::SharedBus bus{3};
  rtos::KernelConfig cfg;
  cfg.pe_count = s.pe_count;
  cfg.resource_count = s.resource_count;
  cfg.max_tasks = s.tasks.size();
  rtos::Kernel k(sim, bus, cfg,
                 rtos::make_daa_software_strategy(s.resource_count,
                                                  s.tasks.size(), cfg.costs),
                 std::make_unique<rtos::SoftwarePiLockBackend>(4, cfg.costs),
                 std::make_unique<rtos::SoftwareHeapBackend>(0x1000, 1 << 20,
                                                             cfg.costs));
  s.install(k);
  k.start();
  sim.run(s.run_limit);
  EXPECT_TRUE(k.all_finished());
}

}  // namespace
}  // namespace delta::fuzz
