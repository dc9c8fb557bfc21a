// End-to-end integration: the full machine grid (configs x algorithms) on
// a mid-size graph, plus cross-module consistency between the functional
// engine, the partitioner and the architectural accounting.
#include <gtest/gtest.h>

#include "algos/pagerank.hpp"
#include "baselines/cpu.hpp"
#include "baselines/graphr.hpp"
#include "core/machine.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/requests.hpp"
#include "graph/generators.hpp"

namespace hyve {
namespace {

const Graph& shared_graph() {
  static const Graph g = generate_rmat(30000, 180000, {}, 20260704);
  return g;
}

TEST(Integration, FullGridProducesSaneReports) {
  for (const HyveConfig& cfg : fig16_accelerator_configs()) {
    const HyveMachine machine(cfg);
    for (const Algorithm a : kCoreAlgorithms) {
      const RunReport r = machine.run(shared_graph(), a);
      SCOPED_TRACE(cfg.label + "/" + algorithm_name(a));
      EXPECT_GT(r.exec_time_ns, 0.0);
      EXPECT_GT(r.total_energy_pj(), 0.0);
      EXPECT_GT(r.iterations, 0u);
      EXPECT_EQ(r.edges_traversed,
                r.iterations * shared_graph().num_edges());
      EXPECT_GT(r.mteps_per_watt(), 0.0);
      // Memory dominates (the paper's premise: >60% everywhere).
      EXPECT_GT(r.energy.memory_pj() / r.total_energy_pj(), 0.4);
      EXPECT_LT(r.energy.memory_pj() / r.total_energy_pj(), 1.0);
    }
  }
}

TEST(Integration, Fig17SharePattern) {
  // Fig. 17: the memory share of total energy shrinks from SD to HyVE to
  // HyVE+power-gating, and the drop is in the *edge* memory bucket.
  const HyveMachine sd(HyveConfig::sram_dram());
  const HyveMachine hyve(HyveConfig::hyve());
  HyveConfig opt_cfg = HyveConfig::hyve_opt();
  opt_cfg.data_sharing = false;  // isolate the power-gating effect
  const HyveMachine opt(opt_cfg);
  for (const Algorithm a : kCoreAlgorithms) {
    const RunReport r_sd = sd.run(shared_graph(), a);
    const RunReport r_hyve = hyve.run(shared_graph(), a);
    const RunReport r_opt = opt.run(shared_graph(), a);
    SCOPED_TRACE(algorithm_name(a));
    EXPECT_LT(r_hyve.energy.edge_memory_pj(), r_sd.energy.edge_memory_pj());
    EXPECT_LT(r_opt.energy.edge_memory_pj(), r_hyve.energy.edge_memory_pj());
    EXPECT_LT(r_opt.energy.memory_pj() / r_opt.total_energy_pj(),
              r_sd.energy.memory_pj() / r_sd.total_energy_pj());
  }
}

TEST(Integration, MemoryEnergyReductionInPaperBallpark) {
  // §7.3.4: 57.57% memory-energy reduction for plain HyVE vs SD and
  // 86.17% for the optimised configuration (we assert generous bands).
  double hyve_reduction = 0;
  double opt_reduction = 0;
  int n = 0;
  for (const Algorithm a : kCoreAlgorithms) {
    const double sd = HyveMachine(HyveConfig::sram_dram())
                          .run(shared_graph(), a)
                          .energy.memory_pj();
    const double hyve = HyveMachine(HyveConfig::hyve())
                            .run(shared_graph(), a)
                            .energy.memory_pj();
    const double opt = HyveMachine(HyveConfig::hyve_opt())
                           .run(shared_graph(), a)
                           .energy.memory_pj();
    hyve_reduction += 1.0 - hyve / sd;
    opt_reduction += 1.0 - opt / sd;
    ++n;
  }
  hyve_reduction /= n;
  opt_reduction /= n;
  EXPECT_GT(hyve_reduction, 0.15);
  EXPECT_LT(hyve_reduction, 0.75);
  EXPECT_GT(opt_reduction, 0.60);
  EXPECT_LT(opt_reduction, 0.97);
  EXPECT_GT(opt_reduction, hyve_reduction);
}

TEST(Integration, PaperExampleGraphEndToEnd) {
  // The Fig. 1 example is too small for the 8-PU machine (8 vertices);
  // run it through the functional engine + partitioning instead.
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  PageRankProgram pr(10);
  const FunctionalResult fr = run_functional(g, pr, part);
  EXPECT_EQ(fr.iterations, 10u);
  EXPECT_EQ(fr.edges_traversed, 110u);
  // v1 receives rank from the hub chain and must outrank isolated v6.
  EXPECT_GT(pr.ranks()[1], pr.ranks()[6]);
}

TEST(Integration, DynamicThenStaticPipeline) {
  // Mutate a graph through the dynamic store, then run the mutated
  // snapshot through the full machine: the pipeline must compose.
  const Graph g = generate_rmat(20000, 100000, {}, 31415);
  DynamicGraphOptions opts;
  opts.num_intervals = 16;
  DynamicGraphStore store(g, opts);
  const auto reqs = generate_requests(g, 5000, {}, 2718);
  apply_requests(store, reqs);
  const Graph mutated = store.snapshot();
  EXPECT_NE(mutated.num_edges(), g.num_edges());
  const RunReport r =
      HyveMachine(HyveConfig::hyve_opt()).run(mutated, Algorithm::kCc);
  EXPECT_GT(r.mteps_per_watt(), 0.0);
}

TEST(Integration, GraphRAndCpuBracketsHold) {
  // Full Fig. 16 + Fig. 21 ordering on one graph: CPU << GraphR < HyVE.
  const double cpu = CpuModel(CpuBaseline::kNaive)
                         .run(shared_graph(), Algorithm::kPageRank)
                         .mteps_per_watt();
  const GraphRReport graphr =
      GraphRModel().run(shared_graph(), Algorithm::kPageRank);
  const RunReport hyve =
      HyveMachine(HyveConfig::hyve_opt()).run(shared_graph(),
                                              Algorithm::kPageRank);
  EXPECT_LT(cpu, graphr.mteps_per_watt());
  EXPECT_LT(graphr.mteps_per_watt(), hyve.mteps_per_watt());
}

TEST(Integration, ReportsDeterministic) {
  const HyveMachine machine(HyveConfig::hyve_opt());
  const RunReport a = machine.run(shared_graph(), Algorithm::kBfs);
  const RunReport b = machine.run(shared_graph(), Algorithm::kBfs);
  EXPECT_DOUBLE_EQ(a.total_energy_pj(), b.total_energy_pj());
  EXPECT_DOUBLE_EQ(a.exec_time_ns, b.exec_time_ns);
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace
}  // namespace hyve
