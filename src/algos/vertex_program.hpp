// Edge-centric vertex programs (paper §2.1, Algorithm 1).
//
// A VertexProgram supplies Initialize() and Update() of the edge-centric
// GAS specialisation: every iteration streams every edge and updates the
// destination vertex from the source's property. Crucially for HyVE's
// data-sharing scheme, Update() never writes the *source* vertex — the
// source interval may live in a remote PU's SRAM behind the router and is
// read-only during processing (§4.2).
//
// Programs also describe their vertex-record width: the PR record is
// wider than the BFS/CC one (rank + accumulator), which is why data
// sharing helps PR the most (Fig. 14).
//
// A program starts from the schedule it will stream, never from a
// Graph: everything it reads before the first pass (the vertex count,
// the out-degrees) is in the schedule's ids, which are the hash-balanced
// ones when the §4.3 remap is on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_columns.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace hyve {

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  virtual std::string name() const = 0;

  // Bytes of vertex state moved per vertex between off-chip and on-chip
  // vertex memory (the paper's "bit width of a vertex").
  virtual std::uint32_t vertex_value_bytes() const = 0;

  // Whether the algorithm has an end-of-iteration apply phase over all
  // vertices (PageRank's rank <- (1-d)/V + d*accum).
  virtual bool has_apply_phase() const { return false; }

  // Resets state for the vertices of `schedule` and prepares iteration
  // 1. Reads only its vertex count and out_degrees().
  virtual void init(const Partitioning& schedule) = 0;

  // Processes one edge; returns true iff the destination value changed.
  virtual bool process_edge(const Edge& e) = 0;

  // Processes one interval block, handed as contiguous src[]/dst[]
  // columns (graph/edge_columns.hpp; weighted programs fetch their
  // weight column once per block with block.weights(max_weight)), in
  // block order; returns how many of its edges changed their
  // destination.
  // Concrete programs override this with a tight non-virtual loop — one
  // virtual call per block instead of one per edge — and must stay
  // result-equivalent to this per-edge reference, which the
  // process_block differential tests pin for every algorithm.
  virtual std::uint64_t process_block(const EdgeBlockSoA& block) {
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < block.count; ++i)
      if (process_edge(block.edge(i))) ++writes;
    return writes;
  }

  // Ends the iteration (apply phase, convergence bookkeeping); returns
  // true iff another full edge pass is required.
  virtual bool end_iteration(std::uint32_t completed_iterations) = 0;

  // Safety net for non-converging inputs.
  virtual std::uint32_t max_iterations() const { return 1000; }
};

}  // namespace hyve
