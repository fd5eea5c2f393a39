// The system state matrix M_ij of Definition 6.
//
// Each entry alpha_st is ternary (none / request / grant) and is stored in
// two bit-planes exactly mirroring the hardware encoding of Eq. 2:
// alpha_st = (alpha^r_st, alpha^g_st) with 10 = request, 01 = grant,
// 00 = no edge. The bit-plane layout lets both the software PDDA and the
// DDU hardware model compute the row/column Bit-Wise-Or aggregates (Eq. 3)
// with word-parallel operations.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "rag/types.h"

namespace delta::rag {

/// Calls f(i) for every set bit i of a little-endian word mask, ascending.
template <class F>
void for_each_set_bit(std::span<const std::uint64_t> words, F&& f) {
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::uint64_t b = words[w]; b != 0; b &= b - 1)
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
}

/// m x n ternary matrix with word-parallel row/column aggregates.
class StateMatrix {
 public:
  StateMatrix() = default;

  /// Construct an all-zero matrix for `resources` rows x `processes` cols.
  StateMatrix(std::size_t resources, std::size_t processes);

  [[nodiscard]] std::size_t resources() const { return m_; }  ///< rows (m)
  [[nodiscard]] std::size_t processes() const { return n_; }  ///< cols (n)

  /// Entry accessors.
  [[nodiscard]] Edge at(ResId s, ProcId t) const;
  void set(ResId s, ProcId t, Edge e);
  void clear(ResId s, ProcId t) { set(s, t, Edge::kNone); }

  /// Convenience edge mutators matching the paper's vocabulary.
  void add_request(ProcId t, ResId s) { set(s, t, Edge::kRequest); }
  void add_grant(ResId s, ProcId t) { set(s, t, Edge::kGrant); }

  /// Number of non-zero entries (edges).
  [[nodiscard]] std::size_t edge_count() const;

  /// True when the matrix has no edges at all (complete reduction result).
  [[nodiscard]] bool empty() const { return edge_count() == 0; }

  /// Row aggregates over resource s: (any request bit, any grant bit).
  [[nodiscard]] bool row_has_request(ResId s) const;
  [[nodiscard]] bool row_has_grant(ResId s) const;

  /// Column aggregates over process t.
  [[nodiscard]] bool col_has_request(ProcId t) const;
  [[nodiscard]] bool col_has_grant(ProcId t) const;

  /// Zero every entry in row s / column t (one reduction removal).
  void clear_row(ResId s);
  void clear_col(ProcId t);

  /// Owner of resource s (the unique grant in row s), or kNoProc.
  /// Single-unit resources: at most one grant per row is expected; if the
  /// matrix (illegally) holds several, the lowest process index is returned.
  [[nodiscard]] ProcId owner(ResId s) const;

  /// All resources currently granted to process t.
  [[nodiscard]] std::vector<ResId> held_by(ProcId t) const;

  /// All resources process t is waiting on.
  [[nodiscard]] std::vector<ResId> requested_by(ProcId t) const;

  /// All processes waiting on resource s.
  [[nodiscard]] std::vector<ProcId> waiters(ResId s) const;

  /// Calls f(t) for every process waiting on resource s, ascending,
  /// without materialising the list (hot grant paths).
  template <class F>
  void for_each_waiter(ResId s, F&& f) const {
    for_each_set_bit({row_request_bits(s), words_}, f);
  }

  bool operator==(const StateMatrix& o) const = default;

  /// ASCII form mirroring Fig. 11: rows q1..qm, columns p1..pn.
  [[nodiscard]] std::string to_string() const;

  /// Raw 64-bit words of the request/grant planes for row s. The DDU model
  /// uses these to evaluate Eq. 3 word-parallel. Bits >= n are zero.
  [[nodiscard]] const std::uint64_t* row_request_bits(ResId s) const {
    assert(s < m_);
    return req_.data() + s * words_;
  }
  [[nodiscard]] const std::uint64_t* row_grant_bits(ResId s) const {
    assert(s < m_);
    return gnt_.data() + s * words_;
  }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

 private:
  std::size_t m_ = 0, n_ = 0, words_ = 0;
  std::vector<std::uint64_t> req_;  // m_ * words_ bits, row-major
  std::vector<std::uint64_t> gnt_;

  [[nodiscard]] std::size_t word_index(ResId s, ProcId t) const;
  [[nodiscard]] std::uint64_t bit_mask(ProcId t) const;
};

std::ostream& operator<<(std::ostream& os, const StateMatrix& m);

}  // namespace delta::rag
