#include "rag/state_matrix.h"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace delta::rag {

StateMatrix::StateMatrix(std::size_t resources, std::size_t processes)
    : m_(resources),
      n_(processes),
      words_((processes + 63) / 64),
      req_(m_ * words_, 0),
      gnt_(m_ * words_, 0) {
  if (resources == 0 || processes == 0)
    throw std::invalid_argument("StateMatrix: dimensions must be positive");
}

std::size_t StateMatrix::word_index(ResId s, ProcId t) const {
  assert(s < m_ && t < n_);
  return s * words_ + t / 64;
}

std::uint64_t StateMatrix::bit_mask(ProcId t) const {
  return 1ULL << (t % 64);
}

Edge StateMatrix::at(ResId s, ProcId t) const {
  const std::size_t w = word_index(s, t);
  const std::uint64_t mask = bit_mask(t);
  if (req_[w] & mask) return Edge::kRequest;
  if (gnt_[w] & mask) return Edge::kGrant;
  return Edge::kNone;
}

void StateMatrix::set(ResId s, ProcId t, Edge e) {
  const std::size_t w = word_index(s, t);
  const std::uint64_t mask = bit_mask(t);
  req_[w] &= ~mask;
  gnt_[w] &= ~mask;
  if (e == Edge::kRequest) req_[w] |= mask;
  if (e == Edge::kGrant) gnt_[w] |= mask;
}

std::size_t StateMatrix::edge_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < req_.size(); ++i)
    count += static_cast<std::size_t>(std::popcount(req_[i])) +
             static_cast<std::size_t>(std::popcount(gnt_[i]));
  return count;
}

bool StateMatrix::row_has_request(ResId s) const {
  for (std::size_t w = 0; w < words_; ++w)
    if (req_[s * words_ + w]) return true;
  return false;
}

bool StateMatrix::row_has_grant(ResId s) const {
  for (std::size_t w = 0; w < words_; ++w)
    if (gnt_[s * words_ + w]) return true;
  return false;
}

bool StateMatrix::col_has_request(ProcId t) const {
  const std::uint64_t mask = bit_mask(t);
  const std::size_t w = t / 64;
  for (ResId s = 0; s < m_; ++s)
    if (req_[s * words_ + w] & mask) return true;
  return false;
}

bool StateMatrix::col_has_grant(ProcId t) const {
  const std::uint64_t mask = bit_mask(t);
  const std::size_t w = t / 64;
  for (ResId s = 0; s < m_; ++s)
    if (gnt_[s * words_ + w] & mask) return true;
  return false;
}

void StateMatrix::clear_row(ResId s) {
  assert(s < m_);
  for (std::size_t w = 0; w < words_; ++w) {
    req_[s * words_ + w] = 0;
    gnt_[s * words_ + w] = 0;
  }
}

void StateMatrix::clear_col(ProcId t) {
  const std::uint64_t mask = ~bit_mask(t);
  const std::size_t w = t / 64;
  for (ResId s = 0; s < m_; ++s) {
    req_[s * words_ + w] &= mask;
    gnt_[s * words_ + w] &= mask;
  }
}

ProcId StateMatrix::owner(ResId s) const {
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t bits = gnt_[s * words_ + w];
    if (bits) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  return kNoProc;
}

std::vector<ResId> StateMatrix::held_by(ProcId t) const {
  std::vector<ResId> out;
  for (ResId s = 0; s < m_; ++s)
    if (at(s, t) == Edge::kGrant) out.push_back(s);
  return out;
}

std::vector<ResId> StateMatrix::requested_by(ProcId t) const {
  std::vector<ResId> out;
  for (ResId s = 0; s < m_; ++s)
    if (at(s, t) == Edge::kRequest) out.push_back(s);
  return out;
}

std::vector<ProcId> StateMatrix::waiters(ResId s) const {
  std::vector<ProcId> out;
  for (ProcId t = 0; t < n_; ++t)
    if (at(s, t) == Edge::kRequest) out.push_back(t);
  return out;
}

std::string StateMatrix::to_string() const {
  std::ostringstream os;
  os << "      ";
  for (ProcId t = 0; t < n_; ++t) os << 'p' << (t + 1) % 10 << ' ';
  os << '\n';
  for (ResId s = 0; s < m_; ++s) {
    os << "  q" << (s + 1) % 10 << "  ";
    for (ProcId t = 0; t < n_; ++t) os << edge_char(at(s, t)) << "  ";
    os << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const StateMatrix& m) {
  return os << m.to_string();
}

}  // namespace delta::rag
