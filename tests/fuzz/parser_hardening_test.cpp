// Hostile-input hardening of the two text parsers: the scenario JSON
// reader (fuzz/scenario_json.h) and the framework config reader
// (soc/config_io.h). Seed inputs are mutated with a fixed seed (byte
// flips, truncations, huge-number digit edits, duplicated keys). Every
// mutant must either be rejected with a message (std::invalid_argument
// from the parser, or a non-empty validate() list) or be accepted and
// then work: an accepted scenario runs the pdda-ddu pair within a
// 10^6-cycle limit, an accepted config constructs through
// soc::generate. Any other exception fails the test; a crash or hang
// fails it too (ctest TIMEOUT).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/differential.h"
#include "fuzz/scenario_json.h"
#include "sim/random.h"
#include "soc/config_io.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"

#ifndef DELTA_FUZZ_CORPUS_DIR
#error "build must define DELTA_FUZZ_CORPUS_DIR"
#endif

namespace delta {
namespace {

constexpr int kMutantsPerSeed = 2000;
constexpr sim::Cycles kRunLimitCap = 1'000'000;

// The corpus minus its two 100 KB large-geometry seeds, which would
// dominate the run time without adding parser coverage.
std::vector<std::string> small_corpus_seeds() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DELTA_FUZZ_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".json" ||
        name == "giveup_storm_large.json" ||
        name == "large_sharded_64x64.json")
      continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& p : files) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back(buf.str());
  }
  return out;
}

std::vector<std::string> config_seeds() {
  std::vector<std::string> out;
  for (const soc::RtosPreset p : soc::kAllRtosPresets)
    out.push_back(soc::write_config(soc::rtos_preset(p)));
  out.push_back(soc::write_config(soc::bankers_config()));
  out.push_back(soc::write_config(soc::wfg_recovery_config()));
  return out;
}

/// Replace one maximal run of digits with a huge or boundary value, or
/// lengthen it with random digits.
void edit_number(std::string& s, sim::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] < '0' || s[i] > '9') {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    runs.emplace_back(b, i);
  }
  if (runs.empty()) return;
  const auto [b, e] = runs[rng.below(runs.size())];
  static const char* const kValues[] = {
      "0",          "1025",       "65536",
      "4294967295", "4294967296", "2147483648",
      "1000000000", "9223372036854775807", "9223372036854775808",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999"};
  std::string value;
  if (rng.chance(0.7)) {
    value = kValues[rng.below(std::size(kValues))];
  } else {
    value = s.substr(b, e - b);
    for (std::uint64_t k = 1 + rng.below(12); k > 0; --k)
      value.push_back(static_cast<char>('0' + rng.below(10)));
  }
  s.replace(b, e - b, value);
}

/// Copy one key line (a line holding `sep`) right after itself.
void duplicate_key(std::string& s, char sep, sim::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;  // [begin, end]
  for (std::size_t b = 0; b < s.size();) {
    std::size_t e = s.find('\n', b);
    if (e == std::string::npos) e = s.size();
    if (s.find(sep, b) < e) lines.emplace_back(b, e);
    b = e + 1;
  }
  if (lines.empty()) return;
  const auto [b, e] = lines[rng.below(lines.size())];
  std::string copy = s.substr(b, e - b);
  // A JSON member line needs its comma to stay well-formed.
  if (sep == ':' && (copy.empty() || copy.back() != ',')) copy.push_back(',');
  s.insert(e, "\n" + copy);
}

std::string mutate(std::string s, char key_sep, sim::Rng& rng) {
  static const char kBytes[] = "{}[]\":,=#-.e 0\n\\";
  for (std::uint64_t n = 1 + rng.below(3); n > 0 && !s.empty(); --n) {
    switch (rng.below(5)) {
      case 0:  // flip one bit
        s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // overwrite with a structural byte
        s[rng.below(s.size())] = kBytes[rng.below(sizeof kBytes - 1)];
        break;
      case 2:  // truncate
        s.resize(rng.below(s.size()));
        break;
      case 3:
        edit_number(s, rng);
        break;
      default:
        duplicate_key(s, key_sep, rng);
        break;
    }
  }
  return s;
}

/// Replace the value of one "bytes" member (an alloc size) with a size at,
/// around or far beyond the smallest preset heap, and return that size
/// (0 when the document has no alloc step).
std::uint64_t edit_alloc_bytes(std::string& s, sim::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> values;  // [begin, end)
  const std::string key = "\"bytes\"";
  for (std::size_t at = s.find(key); at != std::string::npos;
       at = s.find(key, at + 1)) {
    std::size_t b = at + key.size();
    while (b < s.size() && (s[b] == ':' || s[b] == ' ')) ++b;
    std::size_t e = b;
    while (e < s.size() && s[e] >= '0' && s[e] <= '9') ++e;
    if (e > b) values.emplace_back(b, e);
  }
  if (values.empty()) return 0;
  const auto [b, e] = values[rng.below(values.size())];
  static const char* const kSizes[] = {
      "1",          "4096",          "65537",         "8388607",
      "8388608",    "8388609",       "16777216",      "4294967296",
      "1000000000000", "18446744073709551615"};
  const std::string size = kSizes[rng.below(std::size(kSizes))];
  s.replace(b, e - b, size);
  return std::stoull(size);
}

struct Tally {
  int rejected = 0;
  int accepted = 0;
};

TEST(ParserHardening, MutatedScenariosRejectOrRun) {
  const std::vector<std::string> seeds = small_corpus_seeds();
  ASSERT_EQ(seeds.size(), 7u);
  const fuzz::BackendPair& pair = fuzz::find_pair("pdda-ddu");
  sim::Rng rng(0x5eed5ce0);
  Tally tally;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = mutate(seeds[si], ':', rng);
      SCOPED_TRACE("scenario seed " + std::to_string(si) + " mutant " +
                   std::to_string(m) + ":\n" + text);
      fuzz::Scenario s;
      try {
        s = fuzz::scenario_from_json(text);
      } catch (const std::invalid_argument& e) {
        EXPECT_STRNE(e.what(), "");
        ++tally.rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "parser threw a non-rejection: " << e.what();
        continue;
      }
      const std::vector<std::string> errors = s.validate();
      if (!errors.empty()) {
        EXPECT_FALSE(errors.front().empty());
        ++tally.rejected;
        continue;
      }
      ++tally.accepted;
      s.run_limit = std::min(s.run_limit, kRunLimitCap);
      const fuzz::DiffResult d = fuzz::run_pair(s, pair);
      for (const fuzz::RunOutcome& o : d.outcomes)
        EXPECT_TRUE(o.ok) << o.sut << ": " << o.error;
    }
  }
  // The mutator must reach both sides, or the test proves little.
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.accepted, 0);
}

TEST(ParserHardening, MutatedAllocSizesRejectOrRun) {
  // An alloc larger than some SUT's whole heap is a malformed scenario:
  // validate() must reject it, naming the task and step, rather than let
  // the run report a differential "allocation failed" on every SUT.
  const std::vector<std::string> seeds = small_corpus_seeds();
  const fuzz::BackendPair& pair = fuzz::find_pair("pdda-ddu");
  const std::uint64_t heap = fuzz::smallest_preset_heap_bytes();
  sim::Rng rng(0xa110c);
  Tally tally;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    for (int m = 0; m < 40; ++m) {
      std::string text = seeds[si];
      const std::uint64_t bytes = edit_alloc_bytes(text, rng);
      if (bytes == 0) break;
      SCOPED_TRACE("scenario seed " + std::to_string(si) + " mutant " +
                   std::to_string(m) + ":\n" + text);
      fuzz::Scenario s;
      try {  // the reader runs validate() on what it parsed
        s = fuzz::scenario_from_json(text);
      } catch (const std::invalid_argument& e) {
        EXPECT_GT(bytes, heap) << e.what();
        EXPECT_NE(std::string(e.what()).find(": step "), std::string::npos)
            << e.what();
        ++tally.rejected;
        continue;
      }
      ASSERT_LE(bytes, heap);
      ++tally.accepted;
      s.run_limit = std::min(s.run_limit, kRunLimitCap);
      const fuzz::DiffResult d = fuzz::run_pair(s, pair);
      for (const fuzz::RunOutcome& o : d.outcomes)
        EXPECT_TRUE(o.ok) << o.sut << ": " << o.error;
    }
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.accepted, 0);
}

TEST(ParserHardening, MutatedConfigsRejectOrGenerate) {
  const std::vector<std::string> seeds = config_seeds();
  ASSERT_EQ(seeds.size(), 9u);
  sim::Rng rng(0xc0f19);
  Tally tally;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string text = mutate(seeds[si], '=', rng);
      SCOPED_TRACE("config seed " + std::to_string(si) + " mutant " +
                   std::to_string(m) + ":\n" + text);
      soc::DeltaConfig cfg;
      try {
        cfg = soc::read_config(text);
      } catch (const std::invalid_argument& e) {
        EXPECT_STRNE(e.what(), "");
        ++tally.rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "parser threw a non-rejection: " << e.what();
        continue;
      }
      const std::vector<soc::ConfigError> errors = cfg.validate();
      if (!errors.empty()) {
        EXPECT_FALSE(errors.front().message.empty());
        ++tally.rejected;
        continue;
      }
      ++tally.accepted;
      try {
        EXPECT_NE(soc::generate(cfg), nullptr);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "accepted config failed to generate: " << e.what();
      }
    }
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.accepted, 0);
}

}  // namespace
}  // namespace delta
