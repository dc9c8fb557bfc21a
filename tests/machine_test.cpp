#include <gtest/gtest.h>

#include <cmath>

#include "core/machine.hpp"
#include "graph/generators.hpp"
#include "memmodel/techparams.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

Graph test_graph() { return generate_rmat(20000, 120000, {}, 1234); }

RunReport run_config(const HyveConfig& cfg, Algorithm algo,
                     const Graph& g) {
  return HyveMachine(cfg).run(g, algo);
}

// ---------- configuration validation ----------

TEST(Config, PowerGatingRequiresReramEdges) {
  HyveConfig c = HyveConfig::sram_dram();
  c.power_gating = true;
  EXPECT_THROW(c.validate(), InvariantError);
}

TEST(Config, DataSharingRequiresSram) {
  HyveConfig c = HyveConfig::hyve_opt();
  c.sram_bytes_per_pu = 0;
  EXPECT_THROW(c.validate(), InvariantError);
}

TEST(Config, NamedVariantsAreValid) {
  for (const HyveConfig& c : fig16_accelerator_configs())
    EXPECT_NO_THROW(c.validate()) << c.label;
}

TEST(Config, VariantTechAssignments) {
  EXPECT_EQ(HyveConfig::hyve_opt().edge_memory_tech, MemTech::kReram);
  EXPECT_EQ(HyveConfig::hyve_opt().offchip_vertex_tech, MemTech::kDram);
  EXPECT_EQ(HyveConfig::sram_dram().edge_memory_tech, MemTech::kDram);
  EXPECT_FALSE(HyveConfig::acc_dram().has_onchip_vertex_memory());
  EXPECT_EQ(HyveConfig::acc_reram().offchip_vertex_tech, MemTech::kReram);
}

// ---------- interval selection ----------

TEST(Machine, ChoosesMultipleOfPuCount) {
  const HyveMachine m(HyveConfig::hyve_opt());
  const Graph g = test_graph();
  for (std::uint32_t bytes : {4u, 8u}) {
    const std::uint32_t p = m.choose_num_intervals(g, bytes);
    EXPECT_EQ(p % 8, 0u);
    EXPECT_GE(p, 8u);
  }
}

TEST(Machine, SmallerSramMeansMoreIntervals) {
  HyveConfig small = HyveConfig::hyve_opt();
  small.sram_bytes_per_pu = units::KiB(8);
  HyveConfig big = HyveConfig::hyve_opt();
  big.sram_bytes_per_pu = units::MiB(2);
  const Graph g = test_graph();
  EXPECT_GT(HyveMachine(small).choose_num_intervals(g, 8),
            HyveMachine(big).choose_num_intervals(g, 8));
}

TEST(Machine, IntervalsFitSramSections) {
  HyveConfig c = HyveConfig::hyve_opt();
  c.sram_bytes_per_pu = units::KiB(64);
  const HyveMachine m(c);
  const Graph g = test_graph();
  const std::uint32_t p = m.choose_num_intervals(g, 8);
  const double interval_bytes =
      std::ceil(static_cast<double>(g.num_vertices()) / p) * 8;
  EXPECT_LE(interval_bytes, c.sram_bytes_per_pu / 2.0);
}

TEST(Machine, NoSramUsesOnePartitionPerPu) {
  const HyveMachine m(HyveConfig::acc_dram());
  EXPECT_EQ(m.choose_num_intervals(test_graph(), 8), 8u);
}

TEST(Machine, RejectsGraphSmallerThanPuCount) {
  const HyveMachine m(HyveConfig::hyve_opt());
  EXPECT_THROW(m.choose_num_intervals(Graph(4, {}), 4), InvariantError);
}

// ---------- traffic-count identities ----------

TEST(Machine, EdgeTrafficMatchesIterations) {
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g);
  EXPECT_EQ(r.stats.edge_bytes_read, r.iterations * g.num_edges() * 8);
  EXPECT_EQ(r.stats.edge_ops, r.iterations * g.num_edges());
  EXPECT_EQ(r.edges_traversed, r.iterations * g.num_edges());
}

TEST(Machine, SramAccessIdentities) {
  // Eq. 3/4: per edge, two random reads and one random write locally.
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g);
  EXPECT_EQ(r.stats.sram_random_reads, 2 * r.stats.edge_ops);
  EXPECT_EQ(r.stats.sram_random_writes, r.stats.edge_ops);
}

TEST(Machine, ApplyPhaseAddsVertexOps) {
  const Graph g = test_graph();
  const RunReport r =
      run_config(HyveConfig::hyve_opt(), Algorithm::kPageRank, g);
  EXPECT_EQ(r.stats.vertex_ops, r.iterations * g.num_vertices());
  EXPECT_EQ(r.stats.sram_random_reads,
            2 * r.stats.edge_ops + r.stats.vertex_ops);
}

TEST(Machine, Eq8IntervalLoads) {
  // With data sharing, source loads per iteration = (P/N) * V bytes
  // (Eq. 8) plus one destination pass.
  HyveConfig c = HyveConfig::hyve_opt();
  const Graph g = test_graph();
  const RunReport r = run_config(c, Algorithm::kBfs, g);
  const std::uint32_t k = r.num_intervals / 8;
  const std::uint64_t vb = g.num_vertices() * 4ull;
  EXPECT_EQ(r.stats.offchip_vertex_bytes_read,
            r.iterations * (k * vb + vb));
  EXPECT_EQ(r.stats.offchip_vertex_bytes_written, r.iterations * vb);
}

TEST(Machine, SharingReducesIntervalLoadsNtoNSquared) {
  // §4.2: N^2 source loads per super block without sharing, N with.
  HyveConfig shared = HyveConfig::hyve_opt();
  HyveConfig unshared = HyveConfig::hyve_opt();
  unshared.data_sharing = false;
  const Graph g = test_graph();
  const RunReport rs = run_config(shared, Algorithm::kBfs, g);
  const RunReport ru = run_config(unshared, Algorithm::kBfs, g);
  ASSERT_EQ(rs.iterations, ru.iterations);
  const std::uint64_t v_bytes = g.num_vertices() * 4ull;
  const std::uint64_t shared_src =
      rs.stats.offchip_vertex_bytes_read - rs.iterations * v_bytes;
  const std::uint64_t unshared_src =
      ru.stats.offchip_vertex_bytes_read - ru.iterations * v_bytes;
  EXPECT_EQ(unshared_src, 8 * shared_src);  // N = 8
}

TEST(Machine, RouterOnlyUsedWithSharing) {
  const Graph g = test_graph();
  HyveConfig unshared = HyveConfig::hyve_opt();
  unshared.data_sharing = false;
  EXPECT_GT(run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g)
                .stats.router_hops,
            0u);
  EXPECT_EQ(run_config(unshared, Algorithm::kBfs, g).stats.router_hops, 0u);
}

TEST(Machine, RemoteEdgesAreMostEdges) {
  // With N=8 PUs, 7/8 of source intervals are remote in a balanced layout.
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g);
  const double remote_share = static_cast<double>(r.stats.router_hops) /
                              static_cast<double>(r.stats.edge_ops);
  EXPECT_GT(remote_share, 0.8);
  EXPECT_LT(remote_share, 0.95);
}

// ---------- energy properties ----------

TEST(Machine, BreakdownSumsToTotal) {
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kCc, g);
  EXPECT_NEAR(r.energy.memory_pj() + r.energy.logic_pj(),
              r.total_energy_pj(), 1e-6 * r.total_energy_pj());
  EXPECT_GT(r.total_energy_pj(), 0.0);
  EXPECT_GT(r.exec_time_ns, 0.0);
}

TEST(Machine, PowerGatingNeverHurts) {
  const Graph g = test_graph();
  HyveConfig gated = HyveConfig::hyve_opt();
  HyveConfig ungated = HyveConfig::hyve_opt();
  ungated.power_gating = false;
  for (const Algorithm a : kCoreAlgorithms) {
    const RunReport rg = run_config(gated, a, g);
    const RunReport ru = run_config(ungated, a, g);
    EXPECT_LT(rg.total_energy_pj(), ru.total_energy_pj())
        << algorithm_name(a);
    // The only affected component is the edge-memory background.
    EXPECT_NEAR(ru.total_energy_pj() - rg.total_energy_pj(),
                ru.energy[EnergyComponent::kEdgeMemBackground] -
                    rg.energy[EnergyComponent::kEdgeMemBackground],
                1e-6 * ru.total_energy_pj());
  }
}

TEST(Machine, PowerGatingReportsBpgDetail) {
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g);
  EXPECT_GT(r.bpg.bank_wakes, 0u);
  EXPECT_LT(r.bpg.gated_background_pj, r.bpg.ungated_background_pj);
  EXPECT_DOUBLE_EQ(r.energy[EnergyComponent::kEdgeMemBackground],
                   r.bpg.gated_background_pj);
}

TEST(Machine, SharingImprovesEfficiency) {
  const Graph g = test_graph();
  HyveConfig unshared = HyveConfig::hyve_opt();
  unshared.data_sharing = false;
  for (const Algorithm a : kCoreAlgorithms) {
    EXPECT_GT(run_config(HyveConfig::hyve_opt(), a, g).mteps_per_watt(),
              run_config(unshared, a, g).mteps_per_watt())
        << algorithm_name(a);
  }
}

TEST(Machine, Fig16OrderingHolds) {
  // The paper's headline ordering: acc+HyVE-opt > acc+HyVE >
  // acc+SRAM+DRAM > max(acc+ReRAM, acc+DRAM).
  const Graph g = test_graph();
  for (const Algorithm a : kCoreAlgorithms) {
    const double opt =
        run_config(HyveConfig::hyve_opt(), a, g).mteps_per_watt();
    const double hyve = run_config(HyveConfig::hyve(), a, g).mteps_per_watt();
    const double sd =
        run_config(HyveConfig::sram_dram(), a, g).mteps_per_watt();
    const double dram =
        run_config(HyveConfig::acc_dram(), a, g).mteps_per_watt();
    const double reram =
        run_config(HyveConfig::acc_reram(), a, g).mteps_per_watt();
    EXPECT_GT(opt, hyve) << algorithm_name(a);
    EXPECT_GT(hyve, sd) << algorithm_name(a);
    EXPECT_GT(sd, dram) << algorithm_name(a);
    EXPECT_GT(sd, reram) << algorithm_name(a);
  }
}

TEST(Machine, HyveSlightlySlowerThanSd) {
  // Fig. 18: replacing the DRAM edge memory with ReRAM costs a few
  // percent of execution time, never an order of magnitude.
  const Graph g = test_graph();
  for (const Algorithm a : kCoreAlgorithms) {
    const double t_sd =
        run_config(HyveConfig::sram_dram(), a, g).exec_time_ns;
    const double t_hyve = run_config(HyveConfig::hyve(), a, g).exec_time_ns;
    EXPECT_GE(t_hyve, t_sd * 0.999) << algorithm_name(a);
    EXPECT_LT(t_hyve, t_sd * 1.35) << algorithm_name(a);
  }
}

TEST(Machine, MtepsDefinitionsConsistent) {
  const Graph g = test_graph();
  const RunReport r = run_config(HyveConfig::hyve_opt(), Algorithm::kBfs, g);
  EXPECT_NEAR(r.mteps(),
              static_cast<double>(r.edges_traversed) / r.exec_time_ns * 1e3,
              1e-9);
  EXPECT_NEAR(r.edp_pj_ns(), r.total_energy_pj() * r.exec_time_ns, 1e-3);
}

TEST(Machine, HashBalanceReducesStepImbalance) {
  // Balanced layouts finish processing faster (the per-step max is the
  // synchronisation cost the hashing attacks).
  RmatParams skewed{0.7, 0.15, 0.1, 0.05, false, true};
  const Graph g = generate_rmat(20000, 120000, skewed, 77);
  HyveConfig balanced = HyveConfig::hyve_opt();
  HyveConfig raw = HyveConfig::hyve_opt();
  raw.hash_balance = false;
  const RunReport rb = run_config(balanced, Algorithm::kPageRank, g);
  const RunReport rr = run_config(raw, Algorithm::kPageRank, g);
  EXPECT_LT(rb.streaming_time_ns, rr.streaming_time_ns);
}

TEST(Machine, CustomProgramRuns) {
  // The public API accepts caller-supplied programs.
  class CountingProgram final : public VertexProgram {
   public:
    std::string name() const override { return "count"; }
    std::uint32_t vertex_value_bytes() const override { return 4; }
    void init(const Partitioning&) override { count_ = 0; }
    bool process_edge(const Edge&) override {
      ++count_;
      return false;
    }
    bool end_iteration(std::uint32_t) override { return false; }
    std::uint64_t count_ = 0;
  };
  CountingProgram prog;
  const Graph g = test_graph();
  const RunReport r = HyveMachine(HyveConfig::hyve_opt()).run(g, prog);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(prog.count_, g.num_edges());
}

// Table 4 axis: efficiency degrades beyond the SRAM sweet spot.
class SramSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SramSweep, RunsAndReports) {
  HyveConfig c = HyveConfig::hyve_opt();
  c.sram_bytes_per_pu = GetParam();
  const RunReport r = run_config(c, Algorithm::kBfs, test_graph());
  EXPECT_GT(r.mteps_per_watt(), 0.0);
  EXPECT_GT(r.num_intervals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SramSweep,
                         ::testing::Values(units::KiB(256), units::MiB(2),
                                           units::MiB(4), units::MiB(8),
                                           units::MiB(16)));

TEST(Machine, LargestSramLosesToSweetSpot) {
  HyveConfig small = HyveConfig::hyve_opt();
  small.sram_bytes_per_pu = units::MiB(2);
  HyveConfig large = HyveConfig::hyve_opt();
  large.sram_bytes_per_pu = units::MiB(16);
  const Graph g = test_graph();
  EXPECT_GT(run_config(small, Algorithm::kBfs, g).mteps_per_watt(),
            run_config(large, Algorithm::kBfs, g).mteps_per_watt());
}

}  // namespace
}  // namespace hyve
