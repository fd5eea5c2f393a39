// Scaling ablation: avoidance approaches (§3.3.3, §4.3) — the paper's
// DAA driven by the DDU (as in the DAU) vs driven by software PDDA, vs
// Banker's algorithm (needs a-priori claims) and Belik's path-matrix
// method — on a common random request/release workload.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "deadlock/avoidance_baselines.h"
#include "deadlock/bankers.h"
#include "deadlock/daa.h"
#include "deadlock/pdda.h"
#include "hw/dau.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace {

using delta::rag::ProcId;
using delta::rag::ResId;

struct WorkloadEvent {
  bool release;
  ProcId p;
  ResId q;
};

// A deterministic stream of plausible events; each engine interprets it
// with its own admission rules, skipping events that are invalid for its
// current state.
std::vector<WorkloadEvent> make_workload(std::size_t k, std::size_t events) {
  delta::sim::Rng rng(1234);
  std::vector<WorkloadEvent> out;
  for (std::size_t i = 0; i < events; ++i)
    out.push_back({rng.chance(0.45), rng.below(k), rng.below(k)});
  return out;
}

void BM_DauHardware(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto events = make_workload(k, 200);
  double cycles = 0;
  for (auto _ : state) {
    delta::hw::Dau dau(k, k);
    cycles = 0;
    for (const auto& e : events) {
      if (e.release) {
        if (dau.state().at(e.q, e.p) == delta::rag::Edge::kGrant)
          dau.release(e.p, e.q);
        else
          continue;
      } else {
        if (dau.state().at(e.q, e.p) != delta::rag::Edge::kNone) continue;
        dau.request(e.p, e.q);
      }
      cycles += static_cast<double>(dau.last_cycles());
    }
  }
  state.counters["unit_cycles_total"] = cycles;
}
BENCHMARK(BM_DauHardware)->Arg(5)->Arg(10)->Arg(20);

void BM_DaaSoftware(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto events = make_workload(k, 200);
  double cycles = 0;
  for (auto _ : state) {
    delta::deadlock::SoftwarePdda pdda;
    double local = 0;
    delta::deadlock::DaaEngine engine(
        k, k, [&](const delta::rag::StateMatrix& s) {
          const bool dl = pdda.detect(s);
          local += static_cast<double>(pdda.last_cycles());
          return dl;
        });
    for (const auto& e : events) {
      if (e.release) {
        if (engine.state().at(e.q, e.p) == delta::rag::Edge::kGrant)
          engine.release(e.p, e.q);
      } else {
        if (engine.state().at(e.q, e.p) != delta::rag::Edge::kNone) continue;
        engine.request(e.p, e.q);
      }
    }
    cycles = local;
  }
  state.counters["sw_cycles_total"] = cycles;
}
BENCHMARK(BM_DaaSoftware)->Arg(5)->Arg(10)->Arg(20);

void BM_Bankers(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto events = make_workload(k, 200);
  std::vector<ResId> every(k);
  for (ResId q = 0; q < k; ++q) every[q] = q;
  double ops = 0;
  for (auto _ : state) {
    delta::deadlock::BankersEngine banker(k, k);
    for (ProcId p = 0; p < k; ++p) banker.declare_claims(p, every);
    // The engine meters one event at a time; sum them for the run.
    ops = 0;
    for (const auto& e : events) {
      if (e.release) {
        if (banker.state().at(e.q, e.p) != delta::rag::Edge::kGrant) continue;
        banker.release(e.p, e.q);
      } else if (banker.state().at(e.q, e.p) == delta::rag::Edge::kNone) {
        banker.request(e.p, e.q);
      } else {
        continue;
      }
      ops += static_cast<double>(banker.last_meter().total());
    }
  }
  state.counters["ops_total"] = ops;
}
BENCHMARK(BM_Bankers)->Arg(5)->Arg(10)->Arg(20);

void BM_Belik(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto events = make_workload(k, 200);
  double ops = 0;
  for (auto _ : state) {
    delta::deadlock::BelikAvoider belik(k, k);
    for (const auto& e : events) {
      if (e.release) {
        if (belik.state().at(e.q, e.p) == delta::rag::Edge::kGrant)
          belik.release(e.p, e.q);
      } else if (belik.state().at(e.q, e.p) == delta::rag::Edge::kNone) {
        belik.request(e.p, e.q);
      }
    }
    ops = static_cast<double>(belik.meter().total());
  }
  state.counters["ops_total"] = ops;
}
BENCHMARK(BM_Belik)->Arg(5)->Arg(10)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
