#include "exp/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace delta::exp {
namespace {

std::string one_value_string(const std::string& s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(one_value_string("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(one_value_string("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(one_value_string(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(one_value_string("a\x1f"), "\"a\\u001f\"");
}

TEST(JsonWriter, EscapesNonAsciiBytesAsLatin1) {
  // Regression: bytes >= 0x80 are negative in a signed char; they must
  // escape through unsigned char (never sign-extend) and never pass
  // through raw, so the document stays pure-ASCII valid JSON.
  EXPECT_EQ(one_value_string("caf\x8e"), "\"caf\\u008e\"");
  EXPECT_EQ(one_value_string("\xff"), "\"\\u00ff\"");
  EXPECT_EQ(one_value_string("\x80\x81"), "\"\\u0080\\u0081\"");
  EXPECT_EQ(one_value_string("\x7f"), "\"\\u007f\"");  // DEL too
}

TEST(JsonWriter, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(one_value_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  // JSON has no NaN/Infinity literals; emitting them corrupts the
  // report for strict parsers.
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[\n  null,\n  null,\n  null,\n  1.5\n]");
}

TEST(JsonWriter, FiniteDoubleFormattingIsStable) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1e300), "1e+300");
}

TEST(JsonWriter, DoubleFormattingMatchesPrintf) {
  // Reports promise "%.12g" bytes. The writer produces them without
  // snprintf, so check both format_double and value(double) against
  // snprintf itself over random bit patterns, scaled integers and the
  // edges where %g switches notation or rounding carries a digit.
  std::vector<double> cases = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.5,
      1e-5, 1e-4, 9.99999999999e-5, 9.999999999995e-5, 0.0001000000000005,
      1e11, 1e12, -1e12, 999999999999.0, 999999999999.5, 999999999999.4,
      1e15, 123456789012345.0, 0.30000000000000004, 2.0 / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
  };
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // splitmix64 state
  const auto next = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 150000; ++i) {
    const std::uint64_t bits = next();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) cases.push_back(v);
  }
  // Scaled integers: the means, ratios and percentiles reports hold.
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t r = next();
    const double scale = std::pow(10.0, static_cast<int>(r % 31) - 15);
    cases.push_back(static_cast<double>((r >> 8) % 100000000) * scale);
  }
  ASSERT_GT(cases.size(), 190000u);

  std::size_t mismatches = 0;
  for (const double v : cases) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    JsonWriter w;
    w.value(v);
    if (format_double(v) == buf && w.str() == buf) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "printf " << buf << ", format_double "
                    << format_double(v) << ", value " << w.str();
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ReportToJson, IncludesMetricsRegistrySection) {
  obs::MetricsRegistry reg;
  reg.counter("bus.words").add(1234);
  reg.counter("lock.acquires").add(7);
  reg.histogram("lock.latency").add(10.0);
  reg.histogram("lock.latency").add(30.0);

  SweepSpec spec;
  SweepReport report;
  RunResult r;
  r.ok = true;
  r.config = "RTOS4";
  r.workload = "mixed";
  r.metrics = reg.snapshot();
  report.runs.push_back(r);

  const std::string json = report_to_json(spec, report);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"bus.words\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"lock.acquires\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lock.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // Failed runs carry no metrics object.
  RunResult bad;
  bad.ok = false;
  bad.error = "boom";
  SweepReport failed;
  failed.runs.push_back(bad);
  const std::string failed_json = report_to_json(spec, failed);
  EXPECT_EQ(failed_json.find("\"metrics\""), std::string::npos);
}

TEST(ReportToJson, IncludesProfileBlockWhenAttached) {
  RunResult r;
  r.ok = true;
  r.config = "RTOS4";
  r.workload = "mixed";
  r.has_profile = true;
  r.profile.horizon = 1000;
  r.profile.events_seen = 5;
  obs::TaskBuckets b;
  b.task = 0;
  b.name = "t0";
  b.total = 1000;
  b.run = 600;
  b.spin = 50;
  b.blocked = 250;
  b.overhead = 100;
  b.sched_wait = 80;
  b.service = 20;
  r.profile.tasks.push_back(b);
  obs::ContentionEntry c;
  c.kind = obs::WaitObject::kLock;
  c.object = 3;
  c.label = "lock3";
  c.waits = 2;
  c.blocked_cycles = 250;
  r.profile.contention.push_back(c);
  r.timeseries = obs::TimeSeries(100, {"pe0.busy_cycles"});
  r.timeseries.append(100, {60});

  SweepSpec spec;
  SweepReport report;
  report.runs.push_back(r);
  const std::string json = report_to_json(spec, report);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_cycles\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"sched_wait\": 80"), std::string::npos);
  EXPECT_NE(json.find("\"lock3\""), std::string::npos);
  EXPECT_NE(json.find("\"pe0.busy_cycles\": 60"), std::string::npos);

  // The standalone document is the same block plus a trailing newline.
  const std::string doc = profile_to_json(r.profile, r.timeseries);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.back(), '\n');
  EXPECT_NE(doc.find("\"run\": 600"), std::string::npos);

  // Runs without a profile carry no profile key.
  RunResult bare;
  bare.ok = true;
  SweepReport no_profile;
  no_profile.runs.push_back(bare);
  EXPECT_EQ(report_to_json(spec, no_profile).find("\"profile\""),
            std::string::npos);
}

}  // namespace
}  // namespace delta::exp
