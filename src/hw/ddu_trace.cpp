#include "hw/ddu_trace.h"

#include <stdexcept>

namespace delta::hw {

namespace {

/// Records one VCD sample per weight-cell evaluation, the final one
/// (T_iter == 0, decide latched) included. Members are declared in the
/// order the wires are added to the dump.
class DduSampler final : public rag::ReduceObserver {
 public:
  DduSampler(VcdWriter& vcd, std::size_t m, std::size_t n)
      : vcd_(vcd),
        clk_(vcd.add_wire("clk", 1)),
        titer_(vcd.add_wire("t_iter", 1)),
        deadlock_(vcd.add_wire("deadlock", 1)),
        tau_row_(vcd.add_wire("tau_row", static_cast<unsigned>(m))),
        tau_col_(vcd.add_wire("tau_col", static_cast<unsigned>(n))),
        phi_row_(vcd.add_wire("phi_row", static_cast<unsigned>(m))),
        phi_col_(vcd.add_wire("phi_col", static_cast<unsigned>(n))),
        edges_(vcd.add_wire("edge_count", 16)) {}

  void on_step(const rag::ReduceStep& s) override {
    vcd_.change(t_, clk_, t_ % 2 == 0);
    vcd_.change(t_, tau_row_, s.tau_rows[0]);
    vcd_.change(t_, tau_col_, s.tau_cols[0]);
    vcd_.change(t_, phi_row_, s.phi_rows[0]);
    vcd_.change(t_, phi_col_, s.phi_cols[0]);
    vcd_.change(t_, titer_, s.reducing);
    vcd_.change(t_, edges_, s.edges);
    if (s.reducing) {
      ++t_;
      return;
    }
    // Eq. 7: the decide output is the OR of the connect flags.
    vcd_.change(t_, deadlock_, s.phi_rows[0] != 0 || s.phi_cols[0] != 0);
  }

 private:
  VcdWriter& vcd_;
  VcdVar clk_, titer_, deadlock_, tau_row_, tau_col_, phi_row_, phi_col_,
      edges_;
  sim::Cycles t_ = 0;
};

}  // namespace

DduResult trace_ddu(const rag::StateMatrix& state, VcdWriter& vcd) {
  const std::size_t m = state.resources();
  const std::size_t n = state.processes();
  if (m > 64 || n > 64)
    throw std::invalid_argument("trace_ddu: geometry exceeds 64x64");
  DduSampler sampler(vcd, m, n);
  rag::ReduceScratch scratch;
  return Ddu::result_of(
      rag::reduce_planes(state, scratch, nullptr, nullptr, &sampler));
}

}  // namespace delta::hw
