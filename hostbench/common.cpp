#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace hostbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so under a launcher bigger than this process (run.py's Python)
  // it reports the launcher's peak. VmHWM belongs to this image alone.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

namespace {

/// The probe's fixed kernel; returns a checksum so none of it is elided.
std::uint64_t probe_kernel() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::map<std::uint32_t, std::vector<std::uint32_t>> m;
  for (int i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[static_cast<std::uint32_t>(x % 1500)].push_back(
        static_cast<std::uint32_t>(x >> 32));
  }
  std::string s;
  char buf[48];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%u:%zu:%u,", k, v.size(), v.back());
    s += buf;
  }
  return s.size() + x;
}

volatile std::uint64_t probe_sink = 0;

}  // namespace

void SpeedProbe::sample() {
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  if (!kernel_s_.empty()) stretch_s_.push_back(seconds_between(last_, t0));
  probe_sink = probe_kernel();
  kernel_s_.push_back(seconds_between(t0, Clock::now()));
  spent_cpu_s_ += process_cpu_s() - cpu0;
  last_ = Clock::now();
}

void SpeedProbe::begin() {
  kernel_s_.clear();
  stretch_s_.clear();
  spent_cpu_s_ = 0.0;
  sample();
}

void SpeedProbe::tick() {
  if (seconds_between(last_, Clock::now()) >= kPeriodS) sample();
}

void SpeedProbe::end() { sample(); }

double SpeedProbe::scale(std::size_t i) const {
  return kNominalS / ((kernel_s_[i] + kernel_s_[i + 1]) / 2.0);
}

double SpeedProbe::raw_s() const {
  double s = 0.0;
  for (double d : stretch_s_) s += d;
  return s;
}

double SpeedProbe::scaled_s() const {
  double s = 0.0;
  for (std::size_t i = 0; i < stretch_s_.size(); ++i)
    s += stretch_s_[i] * scale(i);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t i = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

Fingerprint& Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return *this;
}

double Layers::total() const {
  double t = 0.0;
  for (double s : seconds) t += s;
  return t;
}

void Layers::add_sut(const std::string& name, double s) {
  for (auto& [n, v] : sut_seconds)
    if (n == name) {
      v += s;
      return;
    }
  sut_seconds.emplace_back(name, s);
}

double Layers::sut(const std::string& name) const {
  for (const auto& [n, v] : sut_seconds)
    if (n == name) return v;
  return 0.0;
}

namespace {

std::uint64_t counter(const delta::obs::MetricsSnapshot& m,
                      const char* name) {
  for (const auto& [n, v] : m.counters)
    if (n == name) return v;
  return 0;
}

}  // namespace

void Counts::add_run(const delta::soc::EngineReport& e,
                     const delta::obs::MetricsSnapshot& m,
                     std::uint64_t app_cycles, std::uint64_t invocations) {
  ++runs;
  events += e.events_dispatched;
  cycles_total += app_cycles;
  scan_sum += e.queue.scan_distance.sum;
  scan_count += e.queue.scan_distance.count;
  scheduled_ring += e.queue.scheduled_ring;
  scheduled_overflow += e.queue.scheduled_overflow;
  overflow_peak = std::max(overflow_peak, e.queue.overflow_peak);
  footprint_bytes += e.queue_footprint_bytes;
  dispatch_inline += e.queue.dispatch_inline;
  dispatch_boxed += e.queue.dispatch_boxed;
  service_windows += e.kernel.service_windows;
  resched_calls += e.kernel.resched_calls;
  resched_scans += e.kernel.resched_scans;
  give_up_episodes += e.kernel.give_up_episodes;
  context_switches += counter(m, "kernel.context_switches");
  deadlock_invocations += invocations;
  ddu_runs += counter(m, "ddu.runs");
  ddu_iterations += counter(m, "ddu.iterations");
  dau_ddu_probes += counter(m, "dau.ddu_probes");
  bus_transactions += counter(m, "bus.transactions");
  bus_wait_cycles += counter(m, "bus.wait_cycles");
  mem_allocs += counter(m, "mem.allocs");
  lock_acquires += counter(m, "lock.acquires");
  lock_contended += counter(m, "lock.contended");
}

void MetricSink::add(std::string name, double value, std::string unit,
                     std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), false, std::move(note)});
}

void MetricSink::count(std::string name, std::uint64_t value,
                       std::string note) {
  metrics_.push_back({std::move(name), static_cast<double>(value), "count",
                      true, std::move(note)});
}

namespace {

std::string number(const Metric& m) {
  char buf[64];
  if (m.integer)
    std::snprintf(buf, sizeof buf, "%.0f", m.value);
  else
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
  return buf;
}

}  // namespace

void MetricSink::print_table() const {
  for (const Metric& m : metrics_)
    std::printf("  %-34s %22s %-6s%s%s\n", m.name.c_str(), number(m).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
}

std::string MetricSink::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace hostbench
