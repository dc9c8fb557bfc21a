#include <gtest/gtest.h>

#include "baselines/cpu.hpp"
#include "baselines/graphr.hpp"
#include "core/machine.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "memmodel/techparams.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

Graph test_graph() { return generate_rmat(20000, 120000, {}, 4321); }

// ---------- GraphR ----------

TEST(GraphR, ReportBasics) {
  const GraphRModel model;
  const GraphRReport r = model.run(test_graph(), Algorithm::kPageRank);
  EXPECT_EQ(r.algorithm, "PR");
  EXPECT_EQ(r.iterations, 10u);
  EXPECT_GT(r.non_empty_blocks, 0u);
  EXPECT_GT(r.exec_time_ns, 0.0);
  EXPECT_GT(r.total_energy_pj(), 0.0);
}

TEST(GraphR, NavgMatchesBlockOccupancy) {
  const Graph g = test_graph();
  const GraphRReport r = GraphRModel().run(g, Algorithm::kBfs);
  const BlockOccupancy occ = block_occupancy(g, 8);
  EXPECT_DOUBLE_EQ(r.n_avg, occ.avg_edges_per_non_empty);
  EXPECT_EQ(r.non_empty_blocks, occ.non_empty_blocks);
}

TEST(GraphR, Eq9VertexLoads) {
  EXPECT_EQ(GraphRModel::global_vertex_loads(100), 1600u);
}

TEST(GraphR, CrossbarWritesDominateEnergy) {
  // §7.4.3: "an edge needs to be written to the ReRAM crossbar first...
  // the energy consumption of such an operation is much larger".
  const GraphRReport r = GraphRModel().run(test_graph(), Algorithm::kPageRank);
  EXPECT_GT(r.energy[EnergyComponent::kPuDynamic],
            0.5 * r.total_energy_pj());
}

TEST(GraphR, HyveBeatsGraphROnEnergyAndTime) {
  // Fig. 21's headline: 5.12x faster, 2.83x lower energy on average.
  const Graph g = test_graph();
  const HyveMachine hyve(HyveConfig::hyve_opt());
  for (const Algorithm a : kAllAlgorithms) {
    const RunReport h = hyve.run(g, a);
    const GraphRReport r = GraphRModel().run(g, a);
    EXPECT_GT(r.total_energy_pj(), 1.3 * h.total_energy_pj())
        << algorithm_name(a);
    EXPECT_GT(r.exec_time_ns, h.exec_time_ns) << algorithm_name(a);
    EXPECT_GT(r.edp_pj_ns(), h.edp_pj_ns()) << algorithm_name(a);
  }
}

TEST(GraphR, MoreCrossbarsReduceTimeNotEnergy) {
  GraphRConfig few;
  few.parallel_crossbars = 4;
  GraphRConfig many;
  many.parallel_crossbars = 64;
  const Graph g = test_graph();
  const GraphRReport rf = GraphRModel(few).run(g, Algorithm::kBfs);
  const GraphRReport rm = GraphRModel(many).run(g, Algorithm::kBfs);
  // A big fleet can become traffic-bound, at which point extra crossbars
  // stop helping; time must never get worse.
  EXPECT_GE(rf.exec_time_ns, rm.exec_time_ns);
  EXPECT_GT(rf.exec_time_ns, 0.0);
  // Dynamic crossbar energy is workload-determined, fleet-independent.
  EXPECT_NEAR(rf.energy[EnergyComponent::kPuDynamic],
              rm.energy[EnergyComponent::kPuDynamic],
              1e-9 * rf.energy[EnergyComponent::kPuDynamic]);
}

TEST(GraphR, MvmAlgorithmsReadOncePerBlock) {
  // Non-MVM algorithms drive 8 row selections; MVM reads once — with the
  // same graph, BFS-style evaluation burns more crossbar reads.
  const Graph g = test_graph();
  const GraphRReport pr = GraphRModel().run(g, Algorithm::kSpmv);
  const GraphRReport bfs = GraphRModel().run(g, Algorithm::kBfs);
  const double pr_per_iter =
      pr.energy[EnergyComponent::kPuDynamic] / pr.iterations;
  const double bfs_per_iter =
      bfs.energy[EnergyComponent::kPuDynamic] / bfs.iterations;
  EXPECT_GT(bfs_per_iter, pr_per_iter);
}

TEST(GraphR, RejectsBadConfig) {
  GraphRConfig c;
  c.parallel_crossbars = 0;
  EXPECT_THROW(GraphRModel{c}, InvariantError);
}

// ---------- pricing forms ----------

// Benches price one whole-graph pass (and, for GraphR, one block
// occupancy) per graph; the result must equal the one-liners that
// compute their own inputs.
TEST(Baselines, PricingFormsEqualTheirOneLiners) {
  const Graph g = test_graph();
  const BlockOccupancy occ = block_occupancy(g, tech::kCrossbarDim);
  for (const Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(algorithm_name(a));
    const FunctionalResult whole_graph = run_functional(g, *make_program(a));

    const GraphRReport priced = GraphRModel().run(g, a, whole_graph, occ);
    const GraphRReport direct = GraphRModel().run(g, a);
    EXPECT_EQ(priced.algorithm, direct.algorithm);
    EXPECT_EQ(priced.iterations, direct.iterations);
    EXPECT_EQ(priced.edges_traversed, direct.edges_traversed);
    EXPECT_EQ(priced.non_empty_blocks, direct.non_empty_blocks);
    EXPECT_EQ(priced.n_avg, direct.n_avg);
    EXPECT_EQ(priced.exec_time_ns, direct.exec_time_ns);
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(EnergyComponent::kCount); ++c)
      EXPECT_EQ(priced.energy[static_cast<EnergyComponent>(c)],
                direct.energy[static_cast<EnergyComponent>(c)]);

    for (const CpuBaseline kind :
         {CpuBaseline::kNaive, CpuBaseline::kOptimized}) {
      const CpuReport cpu_priced = CpuModel(kind).run(a, whole_graph);
      const CpuReport cpu_direct = CpuModel(kind).run(g, a);
      EXPECT_EQ(cpu_priced.config_label, cpu_direct.config_label);
      EXPECT_EQ(cpu_priced.algorithm, cpu_direct.algorithm);
      EXPECT_EQ(cpu_priced.iterations, cpu_direct.iterations);
      EXPECT_EQ(cpu_priced.edges_traversed, cpu_direct.edges_traversed);
      EXPECT_EQ(cpu_priced.exec_time_ns, cpu_direct.exec_time_ns);
      EXPECT_EQ(cpu_priced.energy_pj, cpu_direct.energy_pj);
    }
  }
}

// ---------- CPU ----------

TEST(Cpu, LabelsAndBasics) {
  EXPECT_EQ(CpuModel::label(CpuBaseline::kNaive), "CPU+DRAM");
  EXPECT_EQ(CpuModel::label(CpuBaseline::kOptimized), "CPU+DRAM-opt");
  const CpuReport r =
      CpuModel(CpuBaseline::kNaive).run(test_graph(), Algorithm::kBfs);
  EXPECT_GT(r.exec_time_ns, 0.0);
  EXPECT_GT(r.energy_pj, 0.0);
}

TEST(Cpu, OptimizedBaselineIsFaster) {
  const Graph g = test_graph();
  const CpuReport naive =
      CpuModel(CpuBaseline::kNaive).run(g, Algorithm::kPageRank);
  const CpuReport opt =
      CpuModel(CpuBaseline::kOptimized).run(g, Algorithm::kPageRank);
  EXPECT_LT(opt.exec_time_ns, naive.exec_time_ns);
  EXPECT_GT(opt.mteps_per_watt(), naive.mteps_per_watt());
}

TEST(Cpu, TwoOrdersOfMagnitudeBehindHyveOpt) {
  // §7.3.3's headline: ~145x over CPU+DRAM.
  const Graph g = test_graph();
  const double cpu = CpuModel(CpuBaseline::kNaive)
                         .run(g, Algorithm::kPageRank)
                         .mteps_per_watt();
  const double opt = HyveMachine(HyveConfig::hyve_opt())
                         .run(g, Algorithm::kPageRank)
                         .mteps_per_watt();
  EXPECT_GT(opt / cpu, 50.0);
  EXPECT_LT(opt / cpu, 400.0);
}

}  // namespace
}  // namespace hyve
