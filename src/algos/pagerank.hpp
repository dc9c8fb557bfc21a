// PageRank under the edge-centric model.
//
// Scatter: accum[dst] += rank[src] / out_degree[src];
// apply:   rank[v] = (1-d)/V + d * accum[v].
// The paper runs a fixed 10 iterations (§7.1); the vertex record holds
// both rank and accumulator (8 bytes), the widest of the evaluated
// algorithms.
#pragma once

#include <vector>

#include "algos/vertex_program.hpp"

namespace hyve {

class PageRankProgram final : public VertexProgram {
 public:
  explicit PageRankProgram(std::uint32_t num_iterations = 10,
                           double damping = 0.85)
      : num_iterations_(num_iterations), damping_(damping) {}

  std::string name() const override { return "PR"; }
  std::uint32_t vertex_value_bytes() const override { return 8; }
  bool has_apply_phase() const override { return true; }
  std::uint32_t max_iterations() const override { return num_iterations_; }

  void init(const Partitioning& schedule) override;
  bool process_edge(const Edge& e) override;
  std::uint64_t process_block(const EdgeBlockSoA& block) override;
  bool end_iteration(std::uint32_t completed_iterations) override;

  const std::vector<double>& ranks() const { return rank_; }

 private:
  std::uint32_t num_iterations_;
  double damping_;
  VertexId num_vertices_ = 0;
  std::vector<double> rank_;
  std::vector<double> accum_;
  std::vector<float> contribution_;  // rank[src]/outdeg[src], frozen per pass
  // The schedule's table (Partitioning::out_degrees), valid while the
  // schedule passed to init() lives.
  const std::vector<std::uint32_t>* out_degree_ = nullptr;
};

}  // namespace hyve
