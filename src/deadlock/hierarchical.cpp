#include "deadlock/hierarchical.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace delta::deadlock {

using rag::ProcId;
using rag::ResId;

namespace {

void fill_partition(std::size_t total, std::size_t clusters,
                    std::vector<std::size_t>& begins,
                    std::vector<std::uint32_t>& member_cluster) {
  begins.resize(clusters + 1);
  member_cluster.resize(total);
  for (std::size_t c = 0; c <= clusters; ++c)
    begins[c] = c * total / clusters;
  for (std::size_t c = 0; c < clusters; ++c)
    for (std::size_t i = begins[c]; i < begins[c + 1]; ++i)
      member_cluster[i] = static_cast<std::uint32_t>(c);
}

}  // namespace

ClusterMap::ClusterMap(std::size_t resources, std::size_t processes,
                       std::size_t clusters)
    : m_(resources), n_(processes) {
  if (m_ == 0 || n_ == 0)
    throw std::invalid_argument("ClusterMap: empty geometry");
  c_ = std::clamp<std::size_t>(clusters, 1, std::min(m_, n_));
  fill_partition(m_, c_, res_begin_, res_cluster_);
  fill_partition(n_, c_, proc_begin_, proc_cluster_);
}

std::size_t ClusterMap::default_clusters(std::size_t resources) {
  if (resources < 8) return 1;
  return static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(resources))));
}

HierarchicalDetector::HierarchicalDetector(ClusterMap map,
                                           SoftwareCostModel model)
    : map_(std::move(map)), pdda_(model) {
  const std::size_t rwords = (map_.resources() + 63) / 64;
  const std::size_t pwords = (map_.processes() + 63) / 64;
  res_mask_.assign(map_.clusters() * rwords, 0);
  proc_mask_.assign(map_.clusters() * pwords, 0);
  for (std::size_t c = 0; c < map_.clusters(); ++c) {
    const std::size_t rb = map_.resource_begin(c);
    for (std::size_t s = rb; s < rb + map_.resource_count(c); ++s)
      res_mask_[c * rwords + s / 64] |= std::uint64_t{1} << (s % 64);
    const std::size_t pb = map_.process_begin(c);
    for (std::size_t t = pb; t < pb + map_.process_count(c); ++t)
      proc_mask_[c * pwords + t / 64] |= std::uint64_t{1} << (t % 64);
  }
  comp_res_.resize(rwords);
  comp_proc_.resize(pwords);
  done_.resize(map_.clusters());
}

std::size_t HierarchicalDetector::find(std::size_t c) {
  while (uf_[c] != c) {
    uf_[c] = uf_[uf_[c]];
    c = uf_[c];
  }
  return c;
}

void HierarchicalDetector::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a != b) uf_[std::max(a, b)] = std::min(a, b);
}

bool HierarchicalDetector::scan_remote(const rag::StateMatrix& full) {
  const std::size_t c = map_.clusters();
  const std::size_t words = full.words_per_row();
  uf_.resize(c);
  for (std::size_t i = 0; i < c; ++i) uf_[i] = i;
  incident_.assign(c, 0);

  bool any = false;
  for (ResId s = 0; s < full.resources(); ++s) {
    const std::size_t k = map_.resource_cluster(s);
    const std::uint64_t* req = full.row_request_bits(s);
    const std::uint64_t* gnt = full.row_grant_bits(s);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t remote = (req[w] | gnt[w]) & ~proc_mask_[k * words + w];
      while (remote != 0) {
        const std::size_t t =
            w * 64 + static_cast<std::size_t>(std::countr_zero(remote));
        remote &= remote - 1;
        const std::size_t kt = map_.process_cluster(t);
        unite(k, kt);
        incident_[k] = 1;
        incident_[kt] = 1;
        any = true;
      }
    }
  }
  return any;
}

void HierarchicalDetector::run_local(const rag::StateMatrix& full,
                                     std::size_t c, HierOutcome& out) {
  // The cluster unit sees its own rows and columns: reduce that block in
  // place on the full matrix.
  const std::size_t rwords = comp_res_.size();
  const std::size_t pwords = comp_proc_.size();
  const bool dl = pdda_.detect(full, &res_mask_[c * rwords],
                               &proc_mask_[c * pwords]);
  out.deadlock |= dl;
  out.local_units += 1;
  out.local_iterations = std::max(out.local_iterations,
                                  pdda_.last_iterations());
  // Hardware model per hw::Ddu: one cycle per reduction iteration, at
  // least one for the final irreducible/empty evaluation. Cluster units
  // run in parallel, so the event cost is the max, not the sum.
  out.local_unit_cycles =
      std::max<sim::Cycles>(out.local_unit_cycles,
                            std::max<std::size_t>(pdda_.last_iterations(), 1));
}

void HierarchicalDetector::run_residue(const rag::StateMatrix& full,
                                       std::size_t k, HierOutcome& out) {
  // The component's rows and columns. The component is closed (every
  // edge incident to its rows/columns stays inside it), so the reduction
  // residue over it matches the full matrix restricted to it.
  const std::size_t root = find(k);
  const std::size_t rwords = comp_res_.size();
  const std::size_t pwords = comp_proc_.size();
  std::fill(comp_res_.begin(), comp_res_.end(), 0);
  std::fill(comp_proc_.begin(), comp_proc_.end(), 0);
  std::size_t members = 0, rows = 0, cols = 0;
  for (std::size_t c = 0; c < map_.clusters(); ++c) {
    if (find(c) != root) continue;
    for (std::size_t w = 0; w < rwords; ++w)
      comp_res_[w] |= res_mask_[c * rwords + w];
    for (std::size_t w = 0; w < pwords; ++w)
      comp_proc_[w] |= proc_mask_[c * pwords + w];
    ++members;
    rows += map_.resource_count(c);
    cols += map_.process_count(c);
  }

  out.deadlock |= pdda_.detect(full, comp_res_.data(), comp_proc_.data());
  out.escalated = true;
  out.residue_clusters += members;
  out.residue_resources += rows;
  out.residue_processes += cols;
  // The residue runs in software on the invoking PE; multiple residues
  // (detect_all) execute serially, so the cost is a sum.
  out.residue_sw_cycles += pdda_.last_cycles();
}

HierOutcome HierarchicalDetector::detect_event(const rag::StateMatrix& full,
                                               ResId res) {
  HierOutcome out;
  const std::size_t k = map_.resource_cluster(res);
  run_local(full, k, out);
  scan_remote(full);
  // Escalation trigger: a cycle can only leave cluster k through a
  // remote edge incident to k. No incident remote edge -> the local
  // verdict is already the monolithic verdict.
  if (incident_[k] != 0) run_residue(full, k, out);
  return out;
}

HierOutcome HierarchicalDetector::detect_all(const rag::StateMatrix& full) {
  HierOutcome out;
  for (std::size_t c = 0; c < map_.clusters(); ++c) run_local(full, c, out);
  if (scan_remote(full)) {
    std::fill(done_.begin(), done_.end(), 0);
    for (std::size_t c = 0; c < map_.clusters(); ++c) {
      const std::size_t root = find(c);
      if (incident_[c] == 0 || done_[root] != 0) continue;
      done_[root] = 1;
      run_residue(full, root, out);
    }
  }
  return out;
}

}  // namespace delta::deadlock
