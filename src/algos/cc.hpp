// Connected components via edge-centric label propagation.
//
// Each vertex starts labelled with its own id; every pass propagates
// label[dst] <- min(label[dst], label[src]). Consistent with HyVE's
// read-only source intervals, propagation is strictly source-to-
// destination, so the fixpoint is the *forward* min-label closure; to
// obtain weakly connected components callers symmetrise the input first
// (symmetrized() below), which is the standard edge-centric practice
// (X-Stream runs CC on undirected edge lists).
#pragma once

#include <vector>

#include "algos/vertex_program.hpp"

namespace hyve {

class CcProgram final : public VertexProgram {
 public:
  std::string name() const override { return "CC"; }
  std::uint32_t vertex_value_bytes() const override { return 4; }

  void init(const Partitioning& schedule) override;
  bool process_edge(const Edge& e) override;
  std::uint64_t process_block(const EdgeBlockSoA& block) override;
  bool end_iteration(std::uint32_t completed_iterations) override;

  const std::vector<VertexId>& labels() const { return label_; }

 private:
  std::vector<VertexId> label_;
  bool changed_ = false;
};

// Returns g plus the reverse of every edge (deduplicated), the input CC
// needs to compute weakly connected components.
Graph symmetrized(const Graph& g);

}  // namespace hyve
