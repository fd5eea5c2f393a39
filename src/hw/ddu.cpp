#include "hw/ddu.h"

#include <algorithm>
#include <stdexcept>

namespace delta::hw {

namespace {

/// Iteration bound of one k = min(rows, columns) unit, plus the final
/// all-zero/irreducible check.
std::size_t bound_for(std::size_t k) { return k < 2 ? 1 : 2 * k - 3 + 1; }

}  // namespace

Ddu::Ddu(std::size_t resources, std::size_t processes, std::size_t clusters)
    : cells_(resources, processes) {
  if (clusters > 1)
    hier_.emplace(deadlock::ClusterMap(resources, processes, clusters));
}

void Ddu::load(const rag::StateMatrix& m) {
  if (m.resources() != cells_.resources() ||
      m.processes() != cells_.processes())
    throw std::invalid_argument("Ddu::load: dimension mismatch");
  cells_ = m;
  clean_ = false;  // unknown until the next evaluation
}

std::size_t Ddu::iteration_bound() const {
  return bound_for(std::min(resources(), processes()));
}

std::size_t Ddu::cluster_iteration_bound() const {
  return bound_for(cluster_span());
}

std::size_t Ddu::cluster_span() const {
  if (!hier_) return std::min(resources(), processes());
  const deadlock::ClusterMap& map = hier_->map();
  std::size_t span = 0;
  for (std::size_t c = 0; c < map.clusters(); ++c)
    span = std::max(span, std::min(map.resource_count(c),
                                   map.process_count(c)));
  return span;
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

DduResult Ddu::probe(const rag::StateMatrix& state, rag::ResId res) {
  if (!hier_) return evaluate(state, scratch_);
  const deadlock::HierOutcome o = res == rag::kNoRes
                                      ? hier_->detect_all(state)
                                      : hier_->detect_event(state, res);
  DduResult r;
  r.deadlock = o.deadlock;
  r.iterations = o.local_iterations;
  r.cycles = o.local_unit_cycles;  // cluster units run in parallel: max
  r.escalated = o.escalated;
  r.residue_pe_cycles = o.residue_sw_cycles;
  r.residue_resources = o.residue_resources;
  return r;
}

DduResult Ddu::run() { return finish(probe(cells_, rag::kNoRes)); }

DduResult Ddu::run_event(rag::ResId res) {
  return finish(probe(cells_, clean_ ? res : rag::kNoRes));
}

DduResult Ddu::finish(const DduResult& r) {
  clean_ = !r.deadlock;
  if (ctr_runs_ != nullptr) {
    ctr_runs_->add();
    ctr_iterations_->add(r.iterations);
    if (r.escalated) ctr_escalations_->add();
  }
  return r;
}

void Ddu::attach_metrics(obs::MetricsRegistry& m) {
  if (!hier_) {
    ctr_runs_ = &m.counter("ddu.runs");
    ctr_iterations_ = &m.counter("ddu.iterations");
    return;
  }
  ctr_runs_ = &m.counter("sharded_ddu.runs");
  ctr_iterations_ = &m.counter("sharded_ddu.local_iterations");
  ctr_escalations_ = &m.counter("sharded_ddu.escalations");
}

}  // namespace delta::hw
