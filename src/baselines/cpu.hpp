// CPU+DRAM software baselines (§7.1): an NXgraph-like in-memory system
// ("CPU+DRAM") and Galois ("CPU+DRAM-opt") on a hexa-core i7 at 3.3 GHz,
// measured in the paper with Intel PCM. Here they are modelled at the
// package + DRAM power and per-edge throughput that reproduce the
// paper's two-orders-of-magnitude efficiency gap (§7.3.3).
#pragma once

#include <string>

#include "algos/runner.hpp"
#include "graph/graph.hpp"

namespace hyve {

enum class CpuBaseline { kNaive, kOptimized };  // NXgraph-like vs Galois

struct CpuReport {
  std::string config_label;
  std::string algorithm;
  std::uint32_t iterations = 0;
  std::uint64_t edges_traversed = 0;
  double exec_time_ns = 0;
  double energy_pj = 0;

  double mteps_per_watt() const;
};

class CpuModel {
 public:
  explicit CpuModel(CpuBaseline kind) : kind_(kind) {}

  // Prices a whole-graph run_functional pass of `algorithm`, which both
  // CPU kinds can share. The second form computes the pass itself.
  CpuReport run(Algorithm algorithm, const FunctionalResult& whole_graph) const;
  CpuReport run(const Graph& graph, Algorithm algorithm) const;

  static std::string label(CpuBaseline kind);

 private:
  CpuBaseline kind_;
};

}  // namespace hyve
