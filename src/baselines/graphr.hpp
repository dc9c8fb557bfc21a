// GraphR baseline model (Song et al., HPCA'18), as modelled by the HyVE
// paper in §6 and evaluated in §7.4.
//
// GraphR processes the graph in 8x8-vertex blocks on ReRAM crossbars:
// every edge of a non-empty block is first *written* into a crossbar cell
// (50.88 ns / 3.91 nJ each), then the block is evaluated — one analog
// read for MVM-style algorithms (PR, SpMV; Eq. 11) or 8 row-selected
// reads plus a CMOS op per edge for the rest (BFS, CC, SSSP; Eq. 12).
// Local vertex values live in register files; globally, vertices are
// re-streamed 16x per non-empty block (Eq. 9), far more often than
// HyVE's (P/N) passes (Eq. 8), because the 8-vertex partitions are tiny.
//
// All device constants come from the GraphR paper as quoted by HyVE
// (§7.4.3); the fleet of concurrently-operating crossbars is the one
// [calibrated] parameter (the HyVE paper does not restate GraphR's
// engine count).
#pragma once

#include <string>

#include "algos/runner.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"
#include "memmodel/crossbar.hpp"
#include "memmodel/dram.hpp"
#include "memmodel/memtech.hpp"
#include "memmodel/reram.hpp"
#include "sim/energy.hpp"

namespace hyve {

struct GraphRConfig {
  // Crossbars evaluating distinct blocks concurrently. [calibrated]
  int parallel_crossbars = 64;
  // Global vertex/edge memory technology; GraphR profits from ReRAM here
  // (Fig. 10) because its partition count is huge.
  MemTech global_memory_tech = MemTech::kReram;
  ReramConfig reram;
  DramConfig dram;
};

struct GraphRReport {
  std::string algorithm;
  std::uint32_t iterations = 0;
  std::uint64_t edges_traversed = 0;
  std::uint64_t non_empty_blocks = 0;
  double n_avg = 0;  // Table 1
  double exec_time_ns = 0;
  EnergyBreakdown energy;

  double total_energy_pj() const { return energy.total_pj(); }
  double mteps_per_watt() const;
  double edp_pj_ns() const { return total_energy_pj() * exec_time_ns; }
};

class GraphRModel {
 public:
  explicit GraphRModel(GraphRConfig config = {});

  // Prices a whole-graph run_functional pass of `algorithm` and `occ` =
  // block_occupancy(graph, tech::kCrossbarDim), which callers compute
  // once per graph. The second form computes both itself.
  GraphRReport run(const Graph& graph, Algorithm algorithm,
                   const FunctionalResult& whole_graph,
                   const BlockOccupancy& occ) const;
  GraphRReport run(const Graph& graph, Algorithm algorithm) const;

  // Eq. 9: global sequential vertex loads per iteration.
  static std::uint64_t global_vertex_loads(std::uint64_t non_empty_blocks) {
    return 16 * non_empty_blocks;
  }

 private:
  GraphRConfig config_;
  CrossbarModel crossbar_;
  ReramModel reram_;
  DramModel dram_;
};

}  // namespace hyve
