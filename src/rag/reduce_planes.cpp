#include "rag/reduce_planes.h"

#include <algorithm>
#include <bit>

namespace delta::rag {

namespace {

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// Valid-bit mask of word w for a plane `bits` wide.
std::uint64_t tail_mask(std::size_t w, std::size_t bits) {
  const std::size_t rem = bits - w * 64;
  return rem >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

void set_bit(std::vector<std::uint64_t>& words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

}  // namespace

PlaneReduction reduce_planes(const StateMatrix& m, ReduceScratch& sc,
                             const std::uint64_t* row_mask,
                             const std::uint64_t* col_mask,
                             ReduceObserver* observer) {
  const std::size_t M = m.resources();
  const std::size_t N = m.processes();
  const std::size_t W = m.words_per_row();
  PlaneReduction out;

  // Column selection; bits >= N are zero in the planes already.
  sc.col_sel_.resize(W);
  for (std::size_t w = 0; w < W; ++w) {
    const std::uint64_t sel =
        (col_mask != nullptr ? col_mask[w] : ~std::uint64_t{0}) &
        tail_mask(w, N);
    sc.col_sel_[w] = sel;
    out.cols += static_cast<std::size_t>(std::popcount(sel));
  }

  // Lines 2-6 of Algorithm 2: load the selected cells into the working
  // planes, one slot per selected row in ascending row order. Rows with
  // no selected edge are isolated and never enter the live list.
  sc.req_.resize(M * W);
  sc.gnt_.resize(M * W);
  sc.slot_row_.resize(M);
  sc.live_.clear();
  sc.live_.reserve(M);
  std::size_t slot = 0;
  for (std::size_t rw = 0; rw < words_for(M); ++rw) {
    std::uint64_t rows =
        (row_mask != nullptr ? row_mask[rw] : ~std::uint64_t{0}) &
        tail_mask(rw, M);
    for (; rows != 0; rows &= rows - 1, ++slot) {
      const std::size_t s =
          rw * 64 + static_cast<std::size_t>(std::countr_zero(rows));
      const std::uint64_t* r = m.row_request_bits(s);
      const std::uint64_t* g = m.row_grant_bits(s);
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t rq = r[w] & sc.col_sel_[w];
        const std::uint64_t gq = g[w] & sc.col_sel_[w];
        sc.req_[slot * W + w] = rq;
        sc.gnt_[slot * W + w] = gq;
        any |= rq | gq;
      }
      sc.slot_row_[slot] = static_cast<std::uint32_t>(s);
      if (any != 0) sc.live_.push_back(static_cast<std::uint32_t>(slot));
    }
  }
  out.rows = slot;

  sc.col_r_.resize(W);
  sc.col_g_.resize(W);
  sc.col_tau_.resize(W);
  sc.row_tau_.resize(M);
  sc.terminal_rows_.clear();
  sc.terminal_cols_.clear();
  if (observer != nullptr) {
    sc.tau_rows_.resize(words_for(M));
    sc.phi_rows_.resize(words_for(M));
    sc.phi_cols_.resize(W);
  }

  while (true) {
    // Eq. 3: Bit-Wise-Or aggregates of every live row and column, and
    // Eq. 4: a row/column is terminal iff it has requests XOR grants.
    std::fill(sc.col_r_.begin(), sc.col_r_.end(), 0);
    std::fill(sc.col_g_.begin(), sc.col_g_.end(), 0);
    std::uint32_t term_rows = 0;
    for (std::size_t k = 0; k < sc.live_.size(); ++k) {
      const std::size_t base = sc.live_[k] * W;
      std::uint64_t hr = 0, hg = 0;
      for (std::size_t w = 0; w < W; ++w) {
        hr |= sc.req_[base + w];
        hg |= sc.gnt_[base + w];
        sc.col_r_[w] |= sc.req_[base + w];
        sc.col_g_[w] |= sc.gnt_[base + w];
      }
      const bool tau = (hr != 0) != (hg != 0);
      sc.row_tau_[k] = static_cast<std::uint8_t>(tau);
      term_rows += tau ? 1 : 0;
    }
    std::uint32_t term_cols = 0;
    for (std::size_t w = 0; w < W; ++w) {
      sc.col_tau_[w] = sc.col_r_[w] ^ sc.col_g_[w];
      term_cols += static_cast<std::uint32_t>(std::popcount(sc.col_tau_[w]));
    }
    // Eq. 5: T_iter.
    const bool reducing = term_rows != 0 || term_cols != 0;

    if (observer != nullptr) {
      std::fill(sc.tau_rows_.begin(), sc.tau_rows_.end(), 0);
      std::fill(sc.phi_rows_.begin(), sc.phi_rows_.end(), 0);
      ReduceStep step;
      for (std::size_t k = 0; k < sc.live_.size(); ++k) {
        const std::size_t base = sc.live_[k] * W;
        // A live row has an edge, so a non-terminal one is a connect row.
        set_bit(sc.row_tau_[k] != 0 ? sc.tau_rows_ : sc.phi_rows_,
                sc.slot_row_[sc.live_[k]]);
        for (std::size_t w = 0; w < W; ++w)
          step.edges +=
              static_cast<std::size_t>(std::popcount(sc.req_[base + w])) +
              static_cast<std::size_t>(std::popcount(sc.gnt_[base + w]));
      }
      for (std::size_t w = 0; w < W; ++w)
        sc.phi_cols_[w] = sc.col_r_[w] & sc.col_g_[w];
      step.tau_rows = sc.tau_rows_;
      step.phi_rows = sc.phi_rows_;
      step.tau_cols = sc.col_tau_;
      step.phi_cols = sc.phi_cols_;
      step.reducing = reducing;
      observer->on_step(step);
    }
    if (!reducing) break;

    ++out.iterations;
    sc.terminal_rows_.push_back(term_rows);
    sc.terminal_cols_.push_back(term_cols);
    // Lines 8-9 of Algorithm 1: terminal rows leave the live set, every
    // terminal column is cleared, and rows left without an edge drop out
    // (isolated nodes are never terminal again).
    std::size_t kept = 0;
    for (std::size_t k = 0; k < sc.live_.size(); ++k) {
      if (sc.row_tau_[k] != 0) continue;
      const std::uint32_t s = sc.live_[k];
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t keep = ~sc.col_tau_[w];
        sc.req_[s * W + w] &= keep;
        sc.gnt_[s * W + w] &= keep;
        any |= sc.req_[s * W + w] | sc.gnt_[s * W + w];
      }
      if (any != 0) sc.live_[kept++] = s;
    }
    sc.live_.resize(kept);
  }

  // Eq. 7: whatever survives is deadlocked. The final evaluation's
  // column aggregates are exactly the surviving columns.
  for (std::size_t w = 0; w < W; ++w) sc.col_r_[w] |= sc.col_g_[w];
  sc.live_rows_.assign(words_for(M), 0);
  for (const std::uint32_t s : sc.live_)
    set_bit(sc.live_rows_, sc.slot_row_[s]);
  if (!sc.live_.empty()) {
    const std::size_t s = sc.live_.front();
    std::size_t rank = 0;
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t word = sc.req_[s * W + w] | sc.gnt_[s * W + w];
      if (word == 0) {
        rank += static_cast<std::size_t>(std::popcount(sc.col_sel_[w]));
        continue;
      }
      const std::uint64_t below =
          (std::uint64_t{1} << std::countr_zero(word)) - 1;
      rank += static_cast<std::size_t>(std::popcount(sc.col_sel_[w] & below));
      break;
    }
    out.first_edge = s * out.cols + rank + 1;
  }

  out.terminal_rows = sc.terminal_rows_;
  out.terminal_cols = sc.terminal_cols_;
  out.live_rows = sc.live_rows_;
  out.live_cols = sc.col_r_;
  return out;
}

}  // namespace delta::rag
