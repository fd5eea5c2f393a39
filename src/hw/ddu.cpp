#include "hw/ddu.h"

#include <algorithm>
#include <stdexcept>

namespace delta::hw {

Ddu::Ddu(std::size_t resources, std::size_t processes)
    : cells_(resources, processes) {}

void Ddu::load(const rag::StateMatrix& m) {
  if (m.resources() != cells_.resources() ||
      m.processes() != cells_.processes())
    throw std::invalid_argument("Ddu::load: dimension mismatch");
  cells_ = m;
}

std::size_t Ddu::iteration_bound() const {
  const std::size_t k = std::min(resources(), processes());
  return k < 2 ? 1 : 2 * k - 3 + 1;  // +1: final all-zero/irreducible check
}

DduResult Ddu::result_of(const rag::PlaneReduction& r) {
  DduResult result;
  // Eq. 7: D = OR of connect flags once T_iter == 0. Any surviving edge
  // belongs to a connect node, so D == "edges remain".
  result.deadlock = r.deadlock();
  result.iterations = r.iterations;
  // Hardware time: one bus cycle per iteration; the final (non-reducing)
  // evaluation that observes T_iter == 0 and latches D is the same cycle
  // as the last reduction for reducible inputs, and one cycle for
  // irreducible/empty inputs.
  result.cycles = std::max<std::size_t>(result.iterations, 1);
  return result;
}

DduResult Ddu::evaluate(const rag::StateMatrix& state,
                        rag::ReduceScratch& scratch) {
  return result_of(rag::reduce_planes(state, scratch));
}

DduResult Ddu::evaluate(const rag::StateMatrix& state) {
  rag::ReduceScratch scratch;
  return evaluate(state, scratch);
}

DduResult Ddu::run() {
  const DduResult r = evaluate(cells_, scratch_);
  if (ctr_runs_ != nullptr) {
    ctr_runs_->add();
    ctr_iterations_->add(r.iterations);
  }
  return r;
}

void Ddu::attach_metrics(obs::MetricsRegistry& m) {
  ctr_runs_ = &m.counter("ddu.runs");
  ctr_iterations_ = &m.counter("ddu.iterations");
}

}  // namespace delta::hw
