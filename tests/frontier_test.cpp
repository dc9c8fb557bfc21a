#include <gtest/gtest.h>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/frontier.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/machine.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

Graph test_graph() { return generate_rmat(20000, 120000, {}, 888); }

TEST(Frontier, BfsFixpointMatchesDenseRun) {
  const Graph g = test_graph();
  const Partitioning part(g, 16);
  BfsProgram dense(0);
  run_functional(g, dense, part);
  BfsProgram skipped(0);
  run_frontier(g, skipped, part);
  EXPECT_EQ(dense.distances(), skipped.distances());
}

TEST(Frontier, CcFixpointMatchesDenseRun) {
  const Graph g = test_graph();
  const Partitioning part(g, 8);
  CcProgram dense;
  run_functional(g, dense, part);
  CcProgram skipped;
  run_frontier(g, skipped, part);
  EXPECT_EQ(dense.labels(), skipped.labels());
}

TEST(Frontier, SsspFixpointMatchesDenseRun) {
  const Graph g = test_graph();
  const Partitioning part(g, 8);
  SsspProgram dense(0);
  run_functional(g, dense, part);
  SsspProgram skipped(0);
  run_frontier(g, skipped, part);
  EXPECT_EQ(dense.distances(), skipped.distances());
}

TEST(Frontier, SkipsWorkOnceFrontierShrinks) {
  const Graph g = test_graph();
  const Partitioning part(g, 16);
  BfsProgram bfs;
  const FrontierTrace trace = run_frontier(g, bfs, part);
  ASSERT_GE(trace.iterations(), 3u);
  // First pass streams everything; converged tail passes stream less.
  EXPECT_EQ(trace.edges_in_iteration(0), g.num_edges());
  const std::uint32_t last = trace.iterations() - 1;
  EXPECT_LT(trace.edges_in_iteration(last), g.num_edges());
  // Total processed < dense E * iterations.
  EXPECT_LT(trace.result.edges_traversed,
            static_cast<std::uint64_t>(g.num_edges()) *
                trace.result.iterations);
}

TEST(Frontier, PageRankDegeneratesToDensePasses) {
  // The apply phase reactivates every interval: no skipping, identical
  // traversal counts to the dense model.
  const Graph g = test_graph();
  const Partitioning part(g, 8);
  PageRankProgram pr(5);
  const FrontierTrace trace = run_frontier(g, pr, part);
  EXPECT_EQ(trace.result.edges_traversed, 5 * g.num_edges());
  for (std::uint32_t i = 0; i < trace.result.iterations; ++i)
    EXPECT_EQ(trace.edges_in_iteration(i), g.num_edges());
}

TEST(Frontier, ActiveBlockCountMonotoneStatistics) {
  const Graph g = test_graph();
  const Partitioning part(g, 16);
  BfsProgram bfs;
  const FrontierTrace trace = run_frontier(g, bfs, part);
  for (std::uint32_t i = 0; i < trace.result.iterations; ++i) {
    EXPECT_LE(trace.active_blocks_in_iteration(i), part.num_blocks());
    EXPECT_EQ(trace.edges_in_iteration(i) > 0,
              trace.active_blocks_in_iteration(i) > 0);
  }
}

// ---- machine integration ----

TEST(FrontierMachine, ImprovesBfsEfficiency) {
  const Graph g = test_graph();
  HyveConfig dense_cfg = HyveConfig::hyve_opt();
  HyveConfig skip_cfg = HyveConfig::hyve_opt();
  skip_cfg.frontier_block_skipping = true;
  for (const Algorithm a : {Algorithm::kBfs, Algorithm::kCc}) {
    const RunReport dense = HyveMachine(dense_cfg).run(g, a);
    const RunReport skip = HyveMachine(skip_cfg).run(g, a);
    // Less edge traffic and less energy for the same answer.
    EXPECT_LT(skip.stats.edge_bytes_read, dense.stats.edge_bytes_read)
        << algorithm_name(a);
    EXPECT_LT(skip.total_energy_pj(), dense.total_energy_pj())
        << algorithm_name(a);
  }
}

TEST(FrontierMachine, PageRankUnaffected) {
  const Graph g = test_graph();
  HyveConfig dense_cfg = HyveConfig::hyve_opt();
  HyveConfig skip_cfg = HyveConfig::hyve_opt();
  skip_cfg.frontier_block_skipping = true;
  const RunReport dense = HyveMachine(dense_cfg).run(g, Algorithm::kPageRank);
  const RunReport skip = HyveMachine(skip_cfg).run(g, Algorithm::kPageRank);
  EXPECT_EQ(skip.stats.edge_bytes_read, dense.stats.edge_bytes_read);
  EXPECT_NEAR(skip.total_energy_pj(), dense.total_energy_pj(),
              1e-6 * dense.total_energy_pj());
}

TEST(FrontierMachine, RequiresOnchipMemory) {
  HyveConfig cfg = HyveConfig::acc_dram();
  cfg.frontier_block_skipping = true;
  EXPECT_THROW(cfg.validate(), InvariantError);
}

TEST(FrontierMachine, StatsStayConsistent) {
  const Graph g = test_graph();
  HyveConfig cfg = HyveConfig::hyve_opt();
  cfg.frontier_block_skipping = true;
  const RunReport r = HyveMachine(cfg).run(g, Algorithm::kBfs);
  // Eq. 3/4 hold per processed edge.
  EXPECT_EQ(r.stats.sram_random_reads, 2 * r.stats.edge_ops);
  EXPECT_EQ(r.stats.sram_random_writes, r.stats.edge_ops);
  EXPECT_EQ(r.stats.edge_bytes_read, r.stats.edge_ops * 8);
  // Traversal count matches the trace-processed edges.
  EXPECT_EQ(r.edges_traversed, r.stats.edge_ops);
}

}  // namespace
}  // namespace hyve
