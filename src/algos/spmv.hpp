// Sparse matrix-vector multiplication over the graph's adjacency matrix,
// the second extra algorithm of the GraphR comparison (§7.4.3).
//
// y[dst] += A[src][dst] * x[src] in one edge pass; A's entries are the
// deterministic hash weights scaled to [0, 1).
#pragma once

#include <vector>

#include "algos/vertex_program.hpp"

namespace hyve {

class SpmvProgram final : public VertexProgram {
 public:
  std::string name() const override { return "SpMV"; }
  std::uint32_t vertex_value_bytes() const override { return 8; }  // x and y
  std::uint32_t max_iterations() const override { return 1; }

  void init(const Partitioning& schedule) override;
  bool process_edge(const Edge& e) override;
  std::uint64_t process_block(const EdgeBlockSoA& block) override;
  bool end_iteration(std::uint32_t completed_iterations) override;

  // x[v] is a deterministic function of v so results are reproducible.
  static double input_value(VertexId v);
  static double matrix_value(const Edge& e);

  const std::vector<double>& result() const { return y_; }

 private:
  std::vector<double> y_;
  std::vector<double> x_;  // input_value(v) precomputed per vertex
};

}  // namespace hyve
