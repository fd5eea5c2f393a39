// Structured JSON reports for sweep results.
//
// A deliberately small streaming writer (the repo has no JSON
// dependency) plus the report serializer. Number formatting is fixed
// ("%.12g" doubles, decimal integers, both through std::to_chars) so that
// the same results always produce the same bytes — the property the
// determinism tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.h"

namespace delta::exp {

/// Minimal streaming JSON writer with 2-space pretty printing.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key inside an object; follow with a value or begin_*.
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  /// Keeps string literals off the value(bool) overload.
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma_and_indent();
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<bool> has_items_;  ///< per open scope
  bool pending_key_ = false;
};

/// Stable text rendering of a double ("%.12g").
[[nodiscard]] std::string format_double(double v);

/// Serialize a finished sweep: the spec echo, every run, and per
/// (config, workload) aggregates with mean/stddev across seeds.
/// Deliberately excludes wall time and thread count so the bytes are
/// identical for identical results.
[[nodiscard]] std::string report_to_json(const SweepSpec& spec,
                                         const SweepReport& report);

/// Write one cycle-attribution profile (obs/critpath.h) plus its
/// windowed-series summary as a JSON value into an in-progress writer
/// (sweep reports embed it as the per-run "profile" block). The payload
/// is all-integer — the same run always serializes to the same bytes,
/// which the profile determinism tests pin.
void write_profile(JsonWriter& w, const obs::ProfileReport& profile,
                   const obs::TimeSeries& series);

/// The same profile as a standalone document (ends with a newline).
[[nodiscard]] std::string profile_to_json(const obs::ProfileReport& profile,
                                          const obs::TimeSeries& series);

/// Write one engine-introspection block (soc/engine_report.h: event
/// queue stats + kernel service counters, plus per-track peaks of the
/// engine gauge series when non-empty) as a JSON value. All-integer and
/// derived from simulated state, so the bytes are deterministic. Reports
/// emit it only when the producing spec asked for engine stats; without
/// it the document is byte-identical to a pre-introspection report.
void write_engine_report(JsonWriter& w, const soc::EngineReport& engine,
                         const obs::TimeSeries& engine_series);

}  // namespace delta::exp
