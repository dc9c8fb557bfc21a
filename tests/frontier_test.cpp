#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <tuple>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/frontier.hpp"
#include "algos/gas.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/machine.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

Graph test_graph() { return generate_rmat(20000, 120000, {}, 888); }

// The fixpoint matrix: every program the walk can narrow, on every
// partitioning strategy (contiguous interval maps and the scattered
// populations of HEP and splitmerge) at P in {1, 8, 16}, over an R-MAT
// that keeps its self-loops and duplicate edges. A skipped block must
// never cost a relaxation the dense run makes, so the final vertex state
// equals the dense run's over the same schedule.
template <typename T>
std::vector<std::uint64_t> widened(const std::vector<T>& values) {
  return {values.begin(), values.end()};
}

struct FixpointProgram {
  const char* label;
  std::unique_ptr<VertexProgram> (*make)();
  std::vector<std::uint64_t> (*state)(const VertexProgram&);
};

const FixpointProgram kFixpointPrograms[] = {
    {"BFS", [] { return make_program(Algorithm::kBfs); },
     [](const VertexProgram& p) {
       return widened(dynamic_cast<const BfsProgram&>(p).distances());
     }},
    {"CC", [] { return make_program(Algorithm::kCc); },
     [](const VertexProgram& p) {
       return widened(dynamic_cast<const CcProgram&>(p).labels());
     }},
    {"SSSP", [] { return make_program(Algorithm::kSssp); },
     [](const VertexProgram& p) {
       return widened(dynamic_cast<const SsspProgram&>(p).distances());
     }},
    {"REACH",
     []() -> std::unique_ptr<VertexProgram> {
       return std::make_unique<GasProgram<std::uint32_t>>(
           make_reachability_program(0));
     },
     [](const VertexProgram& p) {
       return widened(
           dynamic_cast<const GasProgram<std::uint32_t>&>(p).values());
     }},
};

const Graph& fixpoint_graph() {
  static const Graph graph = [] {
    RmatParams params;
    params.allow_self_loops = true;
    params.deduplicate = false;
    return generate_rmat(30000, 180000, params, 0xF1C5);
  }();
  return graph;
}

TEST(FrontierFixpointInput, KeepsSelfLoopsAndDuplicates) {
  std::vector<Edge> edges = fixpoint_graph().edges();
  EXPECT_TRUE(std::any_of(edges.begin(), edges.end(),
                          [](const Edge& e) { return e.src == e.dst; }));
  std::sort(edges.begin(), edges.end());
  EXPECT_NE(std::adjacent_find(edges.begin(), edges.end()), edges.end());
}

// The matrix axes, printed as the ctest names show them.
enum class Strategy { kInterval, kHep, kSplitMerge };
const char* spec_of(Strategy strategy) {
  switch (strategy) {
    case Strategy::kInterval: return "interval";
    case Strategy::kHep: return "hep:tau=2";
    case Strategy::kSplitMerge: return "splitmerge:chunks=8";
  }
  return "?";
}
void PrintTo(Strategy strategy, std::ostream* os) { *os << spec_of(strategy); }

enum class Program : std::size_t { kBfs, kCc, kSssp, kReach };
void PrintTo(Program program, std::ostream* os) {
  *os << kFixpointPrograms[static_cast<std::size_t>(program)].label;
}

using FixpointParam = std::tuple<Strategy, std::uint32_t, Program>;

class FrontierFixpoint : public ::testing::TestWithParam<FixpointParam> {};

TEST_P(FrontierFixpoint, MatchesDenseRun) {
  const auto [strategy, p, which] = GetParam();
  const FixpointProgram& program =
      kFixpointPrograms[static_cast<std::size_t>(which)];
  const Graph& g = fixpoint_graph();
  const Partitioning part =
      make_partitioner(*parse_partitioner(spec_of(strategy)))->partition(g, p);

  const auto dense = program.make();
  run_functional(g, *dense, part);
  const auto walked = program.make();
  ASSERT_TRUE(frontier_tracks_activity(*walked));
  const FrontierTrace trace = run_frontier(g, *walked, part);
  EXPECT_EQ(program.state(*dense), program.state(*walked));

  ASSERT_EQ(trace.iterations(), trace.result.iterations);
  std::uint64_t edges = 0;
  for (std::uint32_t it = 0; it < trace.iterations(); ++it)
    edges += trace.edges_in_iteration(it);
  EXPECT_EQ(edges, trace.result.edges_traversed);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FrontierFixpoint,
    ::testing::Combine(::testing::Values(Strategy::kInterval, Strategy::kHep,
                                         Strategy::kSplitMerge),
                       ::testing::Values(1u, 8u, 16u),
                       ::testing::Values(Program::kBfs, Program::kCc,
                                         Program::kSssp, Program::kReach)));

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
