// Property tests for the shared word-parallel reduction
// (rag/reduce_planes.h) against the cell-by-cell oracle
// (rag/reduction.h), whole-matrix and on selected submatrices, plus the
// consumers whose outputs derive from it: the SoftwarePdda op meter
// (against a serial per-cell reference implementation) and the DDU
// waveform trace (against a serial reference tracer).
#include "rag/reduce_planes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "deadlock/hierarchical.h"
#include "deadlock/pdda.h"
#include "hw/ddu.h"
#include "hw/ddu_trace.h"
#include "hw/vcd.h"
#include "rag/generators.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::rag {
namespace {

constexpr std::size_t kSizes[] = {1, 63, 64, 65, 128, 130};

/// A submatrix selection: ascending row and column index lists.
struct Selection {
  std::vector<ResId> rows;
  std::vector<ProcId> cols;
};

std::vector<std::uint64_t> mask_of(const std::vector<std::size_t>& idx,
                                   std::size_t bits) {
  std::vector<std::uint64_t> w((bits + 63) / 64, 0);
  for (const std::size_t i : idx) w[i / 64] |= std::uint64_t{1} << (i % 64);
  return w;
}

std::vector<std::size_t> bits_of(std::span<const std::uint64_t> words) {
  std::vector<std::size_t> out;
  for_each_set_bit(words, [&](std::size_t i) { out.push_back(i); });
  return out;
}

Selection everything(const StateMatrix& m) {
  Selection sel;
  for (ResId s = 0; s < m.resources(); ++s) sel.rows.push_back(s);
  for (ProcId t = 0; t < m.processes(); ++t) sel.cols.push_back(t);
  return sel;
}

StateMatrix extract(const StateMatrix& full, const Selection& sel) {
  StateMatrix sub(sel.rows.size(), sel.cols.size());
  for (std::size_t i = 0; i < sel.rows.size(); ++i)
    for (std::size_t j = 0; j < sel.cols.size(); ++j)
      sub.set(i, j, full.at(sel.rows[i], sel.cols[j]));
  return sub;
}

/// Cluster blocks and multi-cluster components of a ClusterMap, the two
/// selection shapes the hierarchical detector reduces in place.
std::vector<Selection> cluster_selections(std::size_t m, std::size_t n,
                                          sim::Rng& rng) {
  std::vector<Selection> out;
  const deadlock::ClusterMap map(m, n, 1 + rng.below(std::min(m, n)));
  auto add_cluster = [&](Selection& sel, std::size_t c) {
    for (std::size_t i = 0; i < map.resource_count(c); ++i)
      sel.rows.push_back(map.resource_begin(c) + i);
    for (std::size_t j = 0; j < map.process_count(c); ++j)
      sel.cols.push_back(map.process_begin(c) + j);
  };
  for (std::size_t c = 0; c < map.clusters(); ++c) {
    Selection sel;
    add_cluster(sel, c);
    out.push_back(sel);
  }
  for (int k = 0; k < 3; ++k) {
    Selection sel;
    for (std::size_t c = 0; c < map.clusters(); ++c)
      if (rng.below(2) == 0) add_cluster(sel, c);
    if (!sel.rows.empty()) out.push_back(sel);
  }
  // An arbitrary (non-contiguous) selection as well.
  Selection sparse;
  for (ResId s = 0; s < m; ++s)
    if (rng.below(3) != 0) sparse.rows.push_back(s);
  for (ProcId t = 0; t < n; ++t)
    if (rng.below(3) != 0) sparse.cols.push_back(t);
  if (!sparse.rows.empty() && !sparse.cols.empty()) out.push_back(sparse);
  return out;
}

std::vector<StateMatrix> states_for(std::size_t m, std::size_t n,
                                    sim::Rng& rng) {
  std::vector<StateMatrix> out;
  out.emplace_back(m, n);
  for (const double req : {1.0 / static_cast<double>(n + 1), 0.03, 0.15})
    out.push_back(random_state(m, n, rng, 0.6, req));
  if (std::min(m, n) >= 2) {
    out.push_back(cycle_state(m, n, 2 + rng.below(std::min(m, n) - 1), &rng,
                              0.01));
    out.push_back(chain_state(m, n));
    out.push_back(worst_case_state(m, n));
  }
  return out;
}

/// Checks one reduce_planes result against the oracle run on the
/// extracted submatrix.
void expect_matches_oracle(const StateMatrix& full, const Selection& sel,
                           const PlaneReduction& r) {
  const StateMatrix sub = extract(full, sel);
  ASSERT_EQ(r.rows, sel.rows.size());
  ASSERT_EQ(r.cols, sel.cols.size());

  // Per-iteration terminal counts, stepping the oracle one epsilon at a
  // time.
  StateMatrix work = sub;
  std::vector<std::uint32_t> want_rows, want_cols;
  while (true) {
    const std::size_t tr = terminal_rows(work).size();
    const std::size_t tc = terminal_cols(work).size();
    if (!reduce_step(work)) break;
    want_rows.push_back(static_cast<std::uint32_t>(tr));
    want_cols.push_back(static_cast<std::uint32_t>(tc));
  }
  const ReductionResult ref = reduce(sub);
  EXPECT_EQ(r.iterations, ref.steps);
  EXPECT_EQ(std::vector<std::uint32_t>(r.terminal_rows.begin(),
                                       r.terminal_rows.end()),
            want_rows);
  EXPECT_EQ(std::vector<std::uint32_t>(r.terminal_cols.begin(),
                                       r.terminal_cols.end()),
            want_cols);
  EXPECT_EQ(r.deadlock(), !ref.complete);

  // Surviving rows/columns, mapped back to full-matrix indices.
  std::vector<std::size_t> want_live_rows, want_live_cols;
  for (const ResId s : deadlocked_resources(sub))
    want_live_rows.push_back(sel.rows[s]);
  for (const ProcId t : deadlocked_processes(sub))
    want_live_cols.push_back(sel.cols[t]);
  EXPECT_EQ(bits_of(r.live_rows), want_live_rows);
  EXPECT_EQ(bits_of(r.live_cols), want_live_cols);

  std::size_t first = 0;
  for (std::size_t s = 0; s < sub.resources() && first == 0; ++s)
    for (std::size_t t = 0; t < sub.processes(); ++t)
      if (ref.final.at(s, t) != Edge::kNone) {
        first = s * sub.processes() + t + 1;
        break;
      }
  EXPECT_EQ(r.first_edge, first);
}

TEST(ReducePlanes, MatchesOracleOnWholeMatrices) {
  sim::Rng rng(20261017);
  ReduceScratch scratch;  // shared across every geometry on purpose
  for (const std::size_t m : kSizes)
    for (const std::size_t n : kSizes)
      for (const StateMatrix& s : states_for(m, n, rng)) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
        expect_matches_oracle(s, everything(s), reduce_planes(s, scratch));
      }
}

TEST(ReducePlanes, MatchesOracleOnSelectedSubmatrices) {
  sim::Rng rng(7);
  ReduceScratch scratch;
  for (const std::size_t m : kSizes)
    for (const std::size_t n : kSizes)
      for (const StateMatrix& s : states_for(m, n, rng))
        for (const Selection& sel : cluster_selections(m, n, rng)) {
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) + " rows " +
                       std::to_string(sel.rows.size()) + " cols " +
                       std::to_string(sel.cols.size()));
          const std::vector<std::uint64_t> rows = mask_of(sel.rows, m);
          const std::vector<std::uint64_t> cols = mask_of(sel.cols, n);
          expect_matches_oracle(
              s, sel, reduce_planes(s, scratch, rows.data(), cols.data()));
        }
}

TEST(ReducePlanes, NullMasksSelectEverything) {
  sim::Rng rng(3);
  ReduceScratch a, b;
  const StateMatrix s = random_state(65, 130, rng, 0.6, 0.02);
  const std::vector<std::uint64_t> rows(2, ~std::uint64_t{0});
  const std::vector<std::uint64_t> cols(3, ~std::uint64_t{0});
  const PlaneReduction whole = reduce_planes(s, a);
  const PlaneReduction masked = reduce_planes(s, b, rows.data(), cols.data());
  EXPECT_EQ(whole.rows, masked.rows);
  EXPECT_EQ(whole.cols, masked.cols);
  EXPECT_EQ(whole.iterations, masked.iterations);
  EXPECT_EQ(whole.first_edge, masked.first_edge);
  EXPECT_EQ(bits_of(whole.live_cols), bits_of(masked.live_cols));
}

// ---------------------------------------------------------------------
// SoftwarePdda: the op meter is defined by the serial byte-matrix
// implementation a C port on the PE would run. This is that code, with
// its per-cell increments; the closed form must equal it exactly.
// ---------------------------------------------------------------------

struct SerialRun {
  deadlock::OpMeter meter;
  std::size_t iterations = 0;
  bool deadlock = false;
};

SerialRun serial_pdda(const StateMatrix& state) {
  const std::size_t m = state.resources();
  const std::size_t n = state.processes();
  SerialRun run;
  deadlock::OpMeter& op = run.meter;
  std::vector<Edge> cell(m * n);
  for (std::size_t s = 0; s < m; ++s)
    for (std::size_t t = 0; t < n; ++t) {
      cell[s * n + t] = state.at(s, t);
      op.loads += 1;
      op.stores += 1;
      op.alu += 2;
      op.branches += 1;
    }
  std::vector<std::uint8_t> row_term(m), col_term(n);
  while (true) {
    bool any = false;
    for (std::size_t s = 0; s < m; ++s) {
      bool has_r = false, has_g = false;
      for (std::size_t t = 0; t < n; ++t) {
        op.loads += 1;
        op.alu += 3;
        op.branches += 1;
        has_r |= cell[s * n + t] == Edge::kRequest;
        has_g |= cell[s * n + t] == Edge::kGrant;
      }
      row_term[s] = has_r != has_g;
      any |= row_term[s] != 0;
      op.alu += 2;
      op.branches += 1;
      op.stores += 1;
    }
    for (std::size_t t = 0; t < n; ++t) {
      bool has_r = false, has_g = false;
      for (std::size_t s = 0; s < m; ++s) {
        op.loads += 1;
        op.alu += 3;
        op.branches += 1;
        has_r |= cell[s * n + t] == Edge::kRequest;
        has_g |= cell[s * n + t] == Edge::kGrant;
      }
      col_term[t] = has_r != has_g;
      any |= col_term[t] != 0;
      op.alu += 2;
      op.branches += 1;
      op.stores += 1;
    }
    op.branches += 1;
    if (!any) break;
    ++run.iterations;
    for (std::size_t s = 0; s < m; ++s) {
      op.loads += 1;
      op.branches += 1;
      if (!row_term[s]) continue;
      for (std::size_t t = 0; t < n; ++t) {
        cell[s * n + t] = Edge::kNone;
        op.branches += 1;
        op.stores += 1;
        op.alu += 1;
      }
    }
    for (std::size_t t = 0; t < n; ++t) {
      op.loads += 1;
      op.branches += 1;
      if (!col_term[t]) continue;
      for (std::size_t s = 0; s < m; ++s) {
        cell[s * n + t] = Edge::kNone;
        op.branches += 1;
        op.stores += 1;
        op.alu += 1;
      }
    }
  }
  for (std::size_t i = 0; i < m * n && !run.deadlock; ++i) {
    op.loads += 1;
    op.alu += 1;
    op.branches += 1;
    run.deadlock = cell[i] != Edge::kNone;
  }
  return run;
}

void expect_meter(const deadlock::SoftwarePdda& pdda, bool dl,
                  const SerialRun& ref) {
  EXPECT_EQ(dl, ref.deadlock);
  EXPECT_EQ(pdda.last_iterations(), ref.iterations);
  EXPECT_EQ(pdda.last_meter().loads, ref.meter.loads);
  EXPECT_EQ(pdda.last_meter().stores, ref.meter.stores);
  EXPECT_EQ(pdda.last_meter().alu, ref.meter.alu);
  EXPECT_EQ(pdda.last_meter().branches, ref.meter.branches);
}

TEST(ReducePlanesPdda, MeterEqualsSerialReference) {
  sim::Rng rng(11);
  deadlock::SoftwarePdda pdda;
  for (const std::size_t m : {1, 2, 5, 63, 65})
    for (const std::size_t n : {1, 3, 64, 65})
      for (const StateMatrix& s : states_for(m, n, rng)) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
        const bool dl = pdda.detect(s);
        expect_meter(pdda, dl, serial_pdda(s));
      }
}

TEST(ReducePlanesPdda, MaskedMeterEqualsSerialReferenceOnSubmatrix) {
  sim::Rng rng(12);
  deadlock::SoftwarePdda pdda;
  for (const std::size_t m : {5, 64, 65})
    for (const std::size_t n : {5, 63, 130})
      for (const StateMatrix& s : states_for(m, n, rng))
        for (const Selection& sel : cluster_selections(m, n, rng)) {
          const std::vector<std::uint64_t> rows = mask_of(sel.rows, m);
          const std::vector<std::uint64_t> cols = mask_of(sel.cols, n);
          const bool dl = pdda.detect(s, rows.data(), cols.data());
          expect_meter(pdda, dl, serial_pdda(extract(s, sel)));
        }
}

// ---------------------------------------------------------------------
// DDU waveform trace: the VCD must be byte-identical to what a serial
// cell-by-cell tracer emits for the same state.
// ---------------------------------------------------------------------

std::string serial_trace(const StateMatrix& state) {
  hw::VcdWriter vcd;
  const std::size_t m = state.resources();
  const std::size_t n = state.processes();
  const hw::VcdVar v_clk = vcd.add_wire("clk", 1);
  const hw::VcdVar v_titer = vcd.add_wire("t_iter", 1);
  const hw::VcdVar v_deadlock = vcd.add_wire("deadlock", 1);
  const auto rows = static_cast<unsigned>(m);
  const auto cols = static_cast<unsigned>(n);
  const hw::VcdVar v_tau_row = vcd.add_wire("tau_row", rows);
  const hw::VcdVar v_tau_col = vcd.add_wire("tau_col", cols);
  const hw::VcdVar v_phi_row = vcd.add_wire("phi_row", rows);
  const hw::VcdVar v_phi_col = vcd.add_wire("phi_col", cols);
  const hw::VcdVar v_edges = vcd.add_wire("edge_count", 16);
  StateMatrix work = state;
  for (sim::Cycles t = 0;; ++t) {
    std::uint64_t tau_row = 0, tau_col = 0, phi_row = 0, phi_col = 0;
    for (ResId s = 0; s < m; ++s) {
      const bool r = work.row_has_request(s), g = work.row_has_grant(s);
      if (r != g) tau_row |= 1ULL << s;
      if (r && g) phi_row |= 1ULL << s;
    }
    for (ProcId c = 0; c < n; ++c) {
      const bool r = work.col_has_request(c), g = work.col_has_grant(c);
      if (r != g) tau_col |= 1ULL << c;
      if (r && g) phi_col |= 1ULL << c;
    }
    const bool t_iter = (tau_row | tau_col) != 0;
    vcd.change(t, v_clk, t % 2 == 0);
    vcd.change(t, v_tau_row, tau_row);
    vcd.change(t, v_tau_col, tau_col);
    vcd.change(t, v_phi_row, phi_row);
    vcd.change(t, v_phi_col, phi_col);
    vcd.change(t, v_titer, t_iter);
    vcd.change(t, v_edges, work.edge_count());
    if (!t_iter) {
      vcd.change(t, v_deadlock, (phi_row | phi_col) != 0);
      break;
    }
    for (ResId s = 0; s < m; ++s)
      if (tau_row & (1ULL << s)) work.clear_row(s);
    for (ProcId c = 0; c < n; ++c)
      if (tau_col & (1ULL << c)) work.clear_col(c);
  }
  return vcd.render();
}

TEST(ReducePlanesTrace, VcdByteIdenticalToSerialTracer) {
  sim::Rng rng(13);
  for (const std::size_t m : {1, 2, 5, 63, 64})
    for (const std::size_t n : {1, 4, 63, 64})
      for (const StateMatrix& s : states_for(m, n, rng)) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
        hw::VcdWriter vcd;
        const hw::DduResult r = hw::trace_ddu(s, vcd);
        EXPECT_EQ(vcd.render(), serial_trace(s));
        const hw::DduResult plain = hw::Ddu::evaluate(s);
        EXPECT_EQ(r.deadlock, plain.deadlock);
        EXPECT_EQ(r.iterations, plain.iterations);
        EXPECT_EQ(r.cycles, plain.cycles);
      }
}

}  // namespace
}  // namespace delta::rag
