#include "algos/spmv.hpp"

namespace hyve {

void SpmvProgram::init(const Graph& graph) {
  y_.assign(graph.num_vertices(), 0.0);
  // Precompute x so the SoA kernel replaces a per-edge hash of the
  // source id with one gather (same bits: input_value is a pure
  // function of v). Elementwise — vectorizes cleanly.
  x_.resize(graph.num_vertices());
  double* const x = x_.data();
  const VertexId n = graph.num_vertices();
#pragma omp simd
  for (VertexId v = 0; v < n; ++v) x[v] = input_value(v);
}

double SpmvProgram::input_value(VertexId v) {
  // Cheap deterministic hash into [0.5, 1.5) to avoid degenerate zeros.
  std::uint64_t z = v + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return 0.5 + static_cast<double>(z >> 11) * 0x1.0p-53;
}

double SpmvProgram::matrix_value(const Edge& e) {
  return Graph::edge_weight(e, 1024) / 1024.0;
}

bool SpmvProgram::process_edge(const Edge& e) {
  y_[e.dst] += matrix_value(e) * input_value(e.src);
  return true;
}

std::uint64_t SpmvProgram::process_block(const EdgeBlockSoA& block,
                                         std::vector<char>* changed) {
  debug_check_changed_cover(changed, block);
  double* const y = y_.data();
  const double* const x = x_.data();
  const VertexId* const src = block.src;
  const VertexId* const dst = block.dst;
  const std::uint32_t* const weight = block.weights(1024);
  // Two per-edge hashes of process_edge (matrix entry and input
  // value) become one weight load and one gather; the accumulation
  // itself stays sequential to preserve the reference's FP order
  // exactly.
  for (std::size_t i = 0; i < block.count; ++i) {
    const double a = weight[i] / 1024.0;
    y[dst[i]] += a * x[src[i]];
  }
  if (changed != nullptr) {
    char* const mark = changed->data();
#pragma omp simd
    for (std::size_t i = 0; i < block.count; ++i) mark[dst[i]] = 1;
  }
  return block.count;
}

bool SpmvProgram::end_iteration(std::uint32_t) { return false; }

}  // namespace hyve
