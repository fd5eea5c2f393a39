#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace delta::exp {

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& job) {
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      job(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

SweepReport run_sweep(const SweepSpec& spec, const RunnerOptions& opt) {
  const std::vector<RunSpec> runs = expand(spec);

  SweepReport report;
  report.runs.resize(runs.size());

  std::size_t threads = opt.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = std::min(threads, runs.size());
  report.threads_used = std::max<std::size_t>(threads, 1);

  const auto t0 = std::chrono::steady_clock::now();

  std::mutex result_mutex;  // serializes on_result only
  parallel_for(runs.size(), threads, [&](std::size_t i) {
    RunResult r = execute_run(runs[i], spec);
    if (opt.on_result) {
      const std::lock_guard<std::mutex> lock(result_mutex);
      opt.on_result(r);
    }
    report.runs[i] = std::move(r);
  });

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace delta::exp
