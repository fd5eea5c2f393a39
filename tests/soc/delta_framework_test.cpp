#include "soc/delta_framework.h"

#include <gtest/gtest.h>

namespace delta::soc {
namespace {

TEST(DeltaFramework, AllSevenPresetsValidateAndGenerate) {
  for (RtosPreset p : kAllRtosPresets) {
    const DeltaConfig cfg = rtos_preset(p);
    EXPECT_TRUE(cfg.validate().empty()) << to_string(p);
    auto soc = generate(cfg);
    ASSERT_NE(soc, nullptr) << to_string(p);
  }
  EXPECT_THROW((void)rtos_preset_from_int(0), std::invalid_argument);
  EXPECT_THROW((void)rtos_preset_from_int(8), std::invalid_argument);
}

TEST(DeltaFramework, PresetsMatchTable3) {
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos1).deadlock,
            DeadlockComponent::kPddaSoftware);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos2).deadlock,
            DeadlockComponent::kDdu);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos3).deadlock,
            DeadlockComponent::kDaaSoftware);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos4).deadlock,
            DeadlockComponent::kDau);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos5).deadlock,
            DeadlockComponent::kNone);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos5).lock,
            LockComponent::kSoftwarePi);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos6).lock, LockComponent::kSoclc);
  EXPECT_EQ(rtos_preset(RtosPreset::kRtos7).memory,
            MemoryComponent::kSocdmmu);
}

TEST(DeltaFramework, PresetNamesRoundTrip) {
  for (RtosPreset p : kAllRtosPresets) {
    EXPECT_EQ(rtos_preset_from_string(to_string(p)), p);
    EXPECT_EQ(rtos_preset_from_string(
                  std::to_string(static_cast<int>(p))),
              p);
  }
  EXPECT_EQ(to_string(RtosPreset::kRtos4), "RTOS4");
  EXPECT_EQ(rtos_preset_from_string("rtos6"), RtosPreset::kRtos6);
  EXPECT_THROW((void)rtos_preset_from_string("RTOS8"), std::invalid_argument);
  EXPECT_THROW((void)rtos_preset_from_string("bogus"), std::invalid_argument);
  EXPECT_THROW((void)rtos_preset_from_string(""), std::invalid_argument);
}

TEST(DeltaFramework, IntLookupGoesThroughEnum) {
  EXPECT_EQ(rtos_preset(rtos_preset_from_int(4)).deadlock,
            DeadlockComponent::kDau);
  EXPECT_NE(rtos_preset_description(rtos_preset_from_int(2)).find("DDU"),
            std::string::npos);
  EXPECT_THROW((void)rtos_preset_from_int(0), std::invalid_argument);
  EXPECT_THROW((void)rtos_preset_from_int(8), std::invalid_argument);
}

TEST(DeltaFramework, ValidationCatchesBadInput) {
  DeltaConfig cfg;
  cfg.pe_count = 0;
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "pe_count");
  EXPECT_THROW(cfg.validate_or_throw(), std::invalid_argument);

  DeltaConfig cfg2;
  cfg2.lock = LockComponent::kSoclc;
  cfg2.soclc.short_locks = 0;
  cfg2.soclc.long_locks = 0;
  ASSERT_EQ(cfg2.validate().size(), 1u);
  EXPECT_EQ(cfg2.validate()[0].field, "soclc");

  DeltaConfig cfg3;
  cfg3.memory = MemoryComponent::kSocdmmu;
  cfg3.socdmmu.total_blocks = 0;
  ASSERT_EQ(cfg3.validate().size(), 1u);
  EXPECT_EQ(cfg3.validate()[0].field, "socdmmu");
}

TEST(DeltaFramework, ValidationRejectsZeroByteSocdmmuBlocks) {
  // Before this check the config validated and generate() then threw
  // from the Socdmmu constructor.
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos7);
  cfg.socdmmu.block_bytes = 0;
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "socdmmu");
}

TEST(DeltaFramework, ValidationCollectsEveryViolation) {
  DeltaConfig cfg;
  cfg.pe_count = 0;
  cfg.task_count = 0;
  cfg.resource_count = 0;
  cfg.lock = LockComponent::kSoclc;
  cfg.soclc.short_locks = 0;
  cfg.soclc.long_locks = 0;
  cfg.memory = MemoryComponent::kSocdmmu;
  cfg.socdmmu.total_blocks = 0;

  const std::vector<ConfigError> errors = cfg.validate();
  ASSERT_EQ(errors.size(), 5u);
  std::vector<std::string> fields;
  for (const ConfigError& e : errors) fields.push_back(e.field);
  EXPECT_EQ(fields,
            (std::vector<std::string>{"pe_count", "task_count",
                                      "resource_count", "soclc",
                                      "socdmmu"}));

  // The throwing wrapper mentions every field at once.
  try {
    cfg.validate_or_throw();
    FAIL() << "validate_or_throw did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& f : fields)
      EXPECT_NE(what.find(f), std::string::npos) << f;
  }
}

TEST(DeltaFramework, ValidationReportsBadBusConfig) {
  DeltaConfig cfg;
  cfg.bus.data_bus_width = 0;
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "bus");
  EXPECT_FALSE(errors[0].message.empty());
}

TEST(DeltaFramework, ValidConfigHasNoErrorsAndDoesNotThrow) {
  const DeltaConfig cfg = rtos_preset(RtosPreset::kRtos6);
  EXPECT_TRUE(cfg.validate().empty());
  EXPECT_NO_THROW(cfg.validate_or_throw());
}

TEST(DeltaFramework, DescribeNamesComponents) {
  const std::string d5 = rtos_preset(RtosPreset::kRtos5).describe();
  EXPECT_NE(d5.find("priority inheritance (software)"), std::string::npos);
  const std::string d4 = rtos_preset(RtosPreset::kRtos4).describe();
  EXPECT_NE(d4.find("DAU (hardware)"), std::string::npos);
  const std::string d6 = rtos_preset(RtosPreset::kRtos6).describe();
  EXPECT_NE(d6.find("SoCLC"), std::string::npos);
}

TEST(DeltaFramework, ToMpsocConfigCarriesSelections) {
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos6);
  cfg.soclc.short_locks = 8;
  cfg.soclc.long_locks = 8;
  const MpsocConfig mc = cfg.to_mpsoc_config();
  EXPECT_EQ(mc.lock, LockComponent::kSoclc);
  EXPECT_EQ(mc.soclc.short_locks, 8u);
  EXPECT_EQ(mc.max_tasks, 5u);
  EXPECT_EQ(mc.deadlock_unit_resources, 5u);
}

TEST(DeltaFramework, ToMpsocConfigRejectsInvalid) {
  DeltaConfig cfg;
  cfg.task_count = 0;
  EXPECT_THROW(cfg.to_mpsoc_config(), std::invalid_argument);
}

TEST(DeltaFramework, GeneratedHdlMatchesSelection) {
  DeltaConfig dau = rtos_preset(RtosPreset::kRtos4);
  auto files = generate_hdl(dau);
  ASSERT_GE(files.size(), 3u);
  EXPECT_EQ(files[0].name, "Top.v");
  EXPECT_EQ(files[1].name, "ddu_cells.v");  // leaf-cell library
  EXPECT_EQ(files[2].name, "dau_5x5.v");

  DeltaConfig full = rtos_preset(RtosPreset::kRtos6);
  full.memory = MemoryComponent::kSocdmmu;
  full.deadlock = DeadlockComponent::kDdu;
  files = generate_hdl(full);
  std::vector<std::string> names;
  for (const auto& f : files) names.push_back(f.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"Top.v", "ddu_cells.v", "ddu_5x5.v",
                                      "soclc.v", "socdmmu.v"}));
}

TEST(DeltaFramework, ResourceTableFollowsResourceCount) {
  // Regression: to_mpsoc_config() never populated MpsocConfig::resources,
  // so any resource_count != 4 silently kept simulating the paper's four
  // media devices while only the deadlock unit grew.
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos2);
  cfg.resource_count = 16;
  cfg.task_count = 16;
  const MpsocConfig mc = cfg.to_mpsoc_config();
  ASSERT_EQ(mc.resources.size(), 16u);
  EXPECT_EQ(mc.resources.front().name, "q1");
  EXPECT_EQ(mc.resources.back().name, "q16");
  EXPECT_EQ(mc.deadlock_unit_resources, 16u);
  const auto soc = generate(cfg);
  EXPECT_EQ(soc->kernel().config().resource_count, 16u);
  EXPECT_EQ(soc->resource("q16"), 15u);
}

TEST(DeltaFramework, PaperDefaultKeepsTheFourNamedDevices) {
  // The default resource_count (5) is the paper geometry: four devices
  // plus the spare deadlock-unit row — synthesis must not clobber it.
  const MpsocConfig mc = rtos_preset(RtosPreset::kRtos2).to_mpsoc_config();
  ASSERT_EQ(mc.resources.size(), 4u);
  EXPECT_EQ(mc.resources[0].name, "VI");
  EXPECT_EQ(mc.resources[1].name, "IDCT");
  EXPECT_EQ(mc.deadlock_unit_resources, 5u);
}

TEST(DeltaFramework, ValidationCatchesClusterGeometry) {
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos2);
  cfg.deadlock_clusters = 0;
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_EQ(cfg.validate().front().field, "deadlock_clusters");
  cfg.deadlock_clusters = cfg.resource_count + 1;
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_NE(cfg.validate().front().message.find("than resources"),
            std::string::npos);
  cfg.deadlock_clusters = cfg.resource_count;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(DeltaFramework, ValidationCatchesCeilingCountMismatch) {
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos6);
  // 8 short + 8 long locks by default: 16 ceilings or none.
  cfg.lock_ceilings = {1, 2, 3};
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_EQ(cfg.validate().front().field, "lock_ceilings");
  EXPECT_NE(cfg.validate().front().message.find("3 ceilings for 16"),
            std::string::npos);
  cfg.lock_ceilings.assign(16, 1);
  EXPECT_TRUE(cfg.validate().empty());
  EXPECT_EQ(cfg.to_mpsoc_config().lock_ceilings.size(), 16u);
  cfg.lock_ceilings.clear();
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(DeltaFramework, MpsocRejectsCeilingCountMismatchDirectly) {
  // Mpsoc used to forward a wrong-length ceiling table straight into
  // make_locks, silently defaulting the missing ceilings to highest.
  MpsocConfig mc;
  mc.lock = LockComponent::kSoclc;
  mc.lock_ceilings = {1, 2, 3};
  try {
    Mpsoc sys(mc);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("16"), std::string::npos);
  }
}

TEST(DeltaFramework, ShardedHdlEmitsPerClusterUnits) {
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos4);
  cfg.resource_count = 16;
  cfg.task_count = 16;
  cfg.deadlock_clusters = 4;
  std::vector<std::string> names;
  for (const auto& f : generate_hdl(cfg)) names.push_back(f.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"Top.v", "ddu_cells.v", "dau_c0_4x4.v",
                                      "dau_c1_4x4.v", "dau_c2_4x4.v",
                                      "dau_c3_4x4.v"}));
  EXPECT_NE(cfg.describe().find("sharded into 4 clusters"),
            std::string::npos);
}

TEST(DeltaFramework, PresetDescriptionsQuoteTable3) {
  EXPECT_NE(rtos_preset_description(RtosPreset::kRtos1).find("PDDA"),
            std::string::npos);
  EXPECT_NE(rtos_preset_description(RtosPreset::kRtos4).find("DAU"),
            std::string::npos);
  EXPECT_NE(rtos_preset_description(RtosPreset::kRtos7).find("SoCDMMU"),
            std::string::npos);
}

}  // namespace
}  // namespace delta::soc
