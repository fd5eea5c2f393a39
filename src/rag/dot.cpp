#include "rag/dot.h"

#include <sstream>

#include "rag/reduce_planes.h"

namespace delta::rag {

std::string to_dot(const StateMatrix& m,
                   const std::vector<std::string>& process_names,
                   const std::vector<std::string>& resource_names,
                   bool highlight_deadlock) {
  const auto pname = [&](ProcId t) {
    return t < process_names.size() ? process_names[t]
                                    : "p" + std::to_string(t + 1);
  };
  const auto qname = [&](ResId s) {
    return s < resource_names.size() ? resource_names[s]
                                     : "q" + std::to_string(s + 1);
  };

  // Deadlocked nodes survive the terminal reduction with an edge.
  ReduceScratch scratch;
  const PlaneReduction r = reduce_planes(m, scratch);
  const bool hot = highlight_deadlock && r.deadlock();
  const auto has_bit = [](std::span<const std::uint64_t> words,
                          std::size_t i) {
    return ((words[i / 64] >> (i % 64)) & 1) != 0;
  };
  const auto proc_hot = [&](ProcId t) {
    return hot && has_bit(r.live_cols, t);
  };
  const auto res_hot = [&](ResId s) {
    return hot && has_bit(r.live_rows, s);
  };

  std::ostringstream os;
  os << "digraph rag {\n";
  os << "  rankdir=LR;\n";
  os << "  // processes: circles; resources: boxes (paper Fig. 10 style)\n";
  for (ProcId t = 0; t < m.processes(); ++t) {
    os << "  \"" << pname(t) << "\" [shape=circle";
    if (proc_hot(t)) os << ", style=filled, fillcolor=salmon";
    os << "];\n";
  }
  for (ResId s = 0; s < m.resources(); ++s) {
    os << "  \"" << qname(s) << "\" [shape=box";
    if (res_hot(s)) os << ", style=filled, fillcolor=salmon";
    os << "];\n";
  }
  for (ResId s = 0; s < m.resources(); ++s) {
    for (ProcId t = 0; t < m.processes(); ++t) {
      switch (m.at(s, t)) {
        case Edge::kRequest:
          os << "  \"" << pname(t) << "\" -> \"" << qname(s)
             << "\" [label=\"request\", style=dashed];\n";
          break;
        case Edge::kGrant:
          os << "  \"" << qname(s) << "\" -> \"" << pname(t)
             << "\" [label=\"grant\"];\n";
          break;
        case Edge::kNone:
          break;
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace delta::rag
