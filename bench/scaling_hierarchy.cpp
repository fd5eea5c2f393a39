// scaling_hierarchy — sw vs monolithic-hw vs sharded-hw deadlock-unit
// cost curves at 4x4, 16x16, 64x64 and 256x256.
//
// The paper's Table 1/Table 2 synthesis story is told at the 5x5 paper
// geometry, where a monolithic DDU/DAU is essentially free. This bench
// extends the curves to the geometries where it stops being free: for
// each m x m geometry it drives one deterministic seeded edge-event walk
// (mostly cluster-local traffic, --local-bias) and meters every
// detection on all three backends over the *same* state sequence:
//
//   sw            bit-parallel SoftwarePdda on the invoking PE
//   monolithic-hw one m x m DDU (paper unit, iteration bound 2m-3)
//   sharded-hw    C cluster units + inter-cluster resolver
//                 (deadlock/hierarchical.h), software residue on the PE
//
// plus the structural gate areas (hw/synth.h) and the avoidance-side
// worst-case command cycles (DAU at C = 1 vs C clusters). Every number is
// simulated/structural — no wall-clock — so the JSON is byte-stable and
// scripts/bench_baseline.sh --scaling compares it with exact cmp. The
// committed baseline is bench/BENCH_scaling.json; the headline is that
// the sharded unit's gate area and per-event unit latency beat the
// monolithic unit from 64x64 up (matrix cells drop from m*n to ~m*n/C,
// the unit bound from 2m-3 to 2*ceil(m/C)-3).
//
//   scaling_hierarchy --out BENCH_scaling.json
//   scaling_hierarchy --events 8000 --local-bias 75
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "deadlock/hierarchical.h"
#include "deadlock/pdda.h"
#include "exp/json.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "hw/synth.h"
#include "sim/random.h"

using namespace delta;

namespace {

int usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --events N       edge events per geometry walk (default 4000)\n"
      "  --seed N         walk seed (default 1)\n"
      "  --local-bias P   %% of events kept cluster-local (default 90)\n"
      "  --out FILE       JSON output path (default '-' for stdout)\n",
      argv0);
  return 2;
}

struct GeometryRow {
  std::size_t m = 0;
  std::size_t clusters = 0;
  std::uint64_t detections = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t sw_cycles = 0;
  std::uint64_t mono_cycles = 0;
  std::uint64_t shard_unit_cycles = 0;
  std::uint64_t shard_residue_cycles = 0;
  std::uint64_t shard_escalations = 0;
};

/// One deterministic edge-event walk at m x m. Requests/grants are added
/// at random cells (cluster-local with probability `local_bias` — the
/// partitioned-software traffic the Remote Control scheme assumes),
/// detection runs after every added edge on all three backends, and a
/// deadlock verdict rolls the edge back so the walk continues on a
/// deadlock-free state (the detect-on-event contract all units share).
GeometryRow walk(std::size_t m, std::uint64_t events, std::uint64_t seed,
                 std::uint64_t local_bias) {
  GeometryRow row;
  row.m = m;
  row.clusters = deadlock::ClusterMap::default_clusters(m);

  rag::StateMatrix state(m, m);
  hw::Ddu shard(m, m, row.clusters);
  const deadlock::ClusterMap map(m, m, row.clusters);
  deadlock::SoftwarePdda pdda;
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + m);

  for (std::uint64_t i = 0; i < events; ++i) {
    const auto s = static_cast<rag::ResId>(rng.below(m));
    rag::ProcId t;
    if (rng.below(100) < local_bias) {
      const std::size_t c = map.resource_cluster(s);
      t = static_cast<rag::ProcId>(map.process_begin(c) +
                                   rng.below(map.process_count(c)));
    } else {
      t = static_cast<rag::ProcId>(rng.below(m));
    }
    const std::uint64_t roll = rng.below(4);
    const rag::Edge cur = state.at(s, t);

    if (roll == 0) {  // release/cancel: clears the cell, never detects
      if (cur != rag::Edge::kNone) {
        state.set(s, t, rag::Edge::kNone);
        shard.set_edge(s, t, rag::Edge::kNone);
      }
      continue;
    }
    if (cur != rag::Edge::kNone) continue;  // cell occupied, skip
    const rag::Edge e = (roll == 1 && state.owner(s) == rag::kNoProc)
                            ? rag::Edge::kGrant
                            : rag::Edge::kRequest;
    state.set(s, t, e);
    shard.set_edge(s, t, e);

    const bool sw_dl = pdda.detect(state);
    row.sw_cycles += pdda.last_cycles();
    const hw::DduResult mono = hw::Ddu::evaluate(state);
    row.mono_cycles += mono.cycles;
    const hw::DduResult sh = shard.run_event(s);
    row.shard_unit_cycles += sh.cycles;
    row.shard_residue_cycles += sh.residue_pe_cycles;
    row.shard_escalations += sh.escalated ? 1 : 0;
    ++row.detections;

    if (sw_dl != mono.deadlock || sw_dl != sh.deadlock) {
      std::fprintf(stderr,
                   "verdict mismatch at %zux%zu event %llu: sw=%d mono=%d "
                   "sharded=%d\n",
                   m, m, static_cast<unsigned long long>(i), sw_dl,
                   mono.deadlock, sh.deadlock);
      std::exit(1);
    }
    if (sw_dl) {  // keep the walk deadlock-free
      ++row.deadlocks;
      state.set(s, t, rag::Edge::kNone);
      shard.set_edge(s, t, rag::Edge::kNone);
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 4000;
  std::uint64_t seed = 1;
  std::uint64_t local_bias = 90;
  std::string out_path = "-";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--events") events = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--local-bias")
      local_bias = std::strtoull(next(), nullptr, 10);
    else if (arg == "--out") out_path = next();
    else return usage(argv[0]);
  }
  if (local_bias > 100) {
    std::fprintf(stderr, "--local-bias must be 0..100\n");
    return 2;
  }

  const std::size_t geometries[] = {4, 16, 64, 256};

  exp::JsonWriter jw;
  jw.begin_object();
  jw.key("schema").value("delta.bench.scaling.v1");
  jw.key("events").value(events);
  jw.key("seed").value(seed);
  jw.key("local_bias_percent").value(local_bias);
  jw.key("geometries").begin_object();

  for (const std::size_t m : geometries) {
    const GeometryRow row = walk(m, events, seed, local_bias);
    const std::size_t c = row.clusters;

    const hw::AreaReport ddu = hw::ddu_area(m, m);
    const hw::AreaReport sddu = hw::sharded_ddu_area(m, m, c);
    const hw::AreaReport dau = hw::dau_area(m, m);
    const hw::AreaReport sdau = hw::sharded_dau_area(m, m, c);
    const hw::Ddu ddu_unit(m, m);
    const hw::Ddu sddu_unit(m, m, c);
    const hw::Dau dau_unit(m, m);
    const hw::Dau sdau_unit(m, m, c);

    std::fprintf(stderr,
                 "%3zux%-3zu C=%-2zu  det %llu  dl %llu  sw %llu  mono %llu  "
                 "sharded %llu+%llu (esc %llu)  gates %.0f -> %.0f\n",
                 m, m, c, static_cast<unsigned long long>(row.detections),
                 static_cast<unsigned long long>(row.deadlocks),
                 static_cast<unsigned long long>(row.sw_cycles),
                 static_cast<unsigned long long>(row.mono_cycles),
                 static_cast<unsigned long long>(row.shard_unit_cycles),
                 static_cast<unsigned long long>(row.shard_residue_cycles),
                 static_cast<unsigned long long>(row.shard_escalations),
                 ddu.total(), sddu.total());

    jw.key(std::to_string(m) + "x" + std::to_string(m)).begin_object();
    jw.key("clusters").value(static_cast<std::uint64_t>(c));
    jw.key("detections").value(row.detections);
    jw.key("deadlocks").value(row.deadlocks);

    jw.key("detection").begin_object();
    jw.key("sw").begin_object();
    jw.key("gates").value(0.0);
    jw.key("pe_cycles").value(row.sw_cycles);
    jw.end_object();
    jw.key("monolithic_hw").begin_object();
    jw.key("gates").value(ddu.total());
    jw.key("matrix_cell_gates").value(ddu.matrix_cells);
    jw.key("iteration_bound")
        .value(static_cast<std::uint64_t>(ddu_unit.iteration_bound()));
    jw.key("unit_cycles").value(row.mono_cycles);
    jw.end_object();
    jw.key("sharded_hw").begin_object();
    jw.key("gates").value(sddu.total());
    jw.key("matrix_cell_gates").value(sddu.matrix_cells);
    jw.key("cluster_iteration_bound")
        .value(static_cast<std::uint64_t>(sddu_unit.cluster_iteration_bound()));
    jw.key("unit_cycles").value(row.shard_unit_cycles);
    jw.key("residue_pe_cycles").value(row.shard_residue_cycles);
    jw.key("escalated_events").value(row.shard_escalations);
    jw.end_object();
    jw.end_object();

    jw.key("avoidance").begin_object();
    jw.key("monolithic_hw").begin_object();
    jw.key("gates").value(dau.total());
    jw.key("worst_case_cycles")
        .value(static_cast<std::uint64_t>(dau_unit.worst_case_cycles()));
    jw.end_object();
    jw.key("sharded_hw").begin_object();
    jw.key("gates").value(sdau.total());
    jw.key("worst_case_cycles")
        .value(static_cast<std::uint64_t>(sdau_unit.worst_case_cycles()));
    jw.end_object();
    jw.end_object();

    // The curves' headline, stated as data: does sharding win here?
    jw.key("sharded_saves_gates").value(sddu.total() < ddu.total());
    jw.key("sharded_saves_unit_cycles")
        .value(row.shard_unit_cycles < row.mono_cycles);
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
  const std::string json = jw.str() + "\n";

  if (out_path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "written to %s\n", out_path.c_str());
  }
  return 0;
}
