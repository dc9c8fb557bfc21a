// Differential tests of VertexProgram::process_block against the scalar
// process_edge reference. For every shipped program the block kernel
// must produce the same per-block write counts, the same changed-vertex
// bitmaps, the same end_iteration decisions and the same final vertex
// state as the per-edge loop it replaces — on the paper's example graph,
// an R-MAT at the paper's schedule granularity, and random graphs,
// partition widths and mid-run states. These tests are the contract that
// lets run_functional/run_frontier drive whole blocks. Also pins the
// weight columns (built on first use) to Graph::edge_weight, proves
// per-iteration pattern reuse is invisible in results and traces, and
// exercises the build-once publication of the weight columns, the
// source-block index and the out-degree table under concurrency (run
// under -L sweep-engine so the ThreadSanitizer CI pass covers it).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/frontier.hpp"
#include "algos/gas.hpp"
#include "algos/pagerank.hpp"
#include "algos/runner.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

struct ProgramCase {
  const char* label;
  std::function<std::unique_ptr<VertexProgram>()> make;
  std::function<void(const VertexProgram&, const VertexProgram&)> expect_eq;
};

template <typename Program, typename Output>
ProgramCase program_case(const char* label,
                         std::function<Program()> make_program,
                         Output (Program::*output)() const) {
  return {label,
          [make_program]() -> std::unique_ptr<VertexProgram> {
            return std::make_unique<Program>(make_program());
          },
          [output](const VertexProgram& a, const VertexProgram& b) {
            EXPECT_EQ((dynamic_cast<const Program&>(a).*output)(),
                      (dynamic_cast<const Program&>(b).*output)());
          }};
}

std::vector<ProgramCase> all_programs() {
  using Gas = GasProgram<std::uint32_t>;
  return {
      program_case<BfsProgram>("BFS", [] { return BfsProgram(); },
                               &BfsProgram::distances),
      program_case<CcProgram>("CC", [] { return CcProgram(); },
                              &CcProgram::labels),
      program_case<PageRankProgram>("PR", [] { return PageRankProgram(); },
                                    &PageRankProgram::ranks),
      program_case<SsspProgram>("SSSP", [] { return SsspProgram(); },
                                &SsspProgram::distances),
      program_case<SpmvProgram>("SpMV", [] { return SpmvProgram(); },
                                &SpmvProgram::result),
      program_case<Gas>("REACH", [] { return make_reachability_program(0); },
                        &Gas::values),
      program_case<Gas>("WIDEST", [] { return make_widest_path_program(0); },
                        &Gas::values),
  };
}

Graph rmat_graph() { return generate_rmat(20000, 120000, {}, 888); }

// Drives two fresh instances of one program in lockstep over `part` in
// the destination-major block order, for up to `max_passes` passes or
// until they converge: `by_edge` through process_edge, `by_block`
// through process_block. Each block must report the same write count
// and mark the same changed vertices, and each pass must end with the
// same end_iteration decision; the final states are compared last.
void expect_lockstep(const Graph& g, const Partitioning& part,
                     const ProgramCase& pc, std::uint32_t max_passes) {
  const auto by_edge = pc.make();
  const auto by_block = pc.make();
  by_edge->init(g);
  by_block->init(g);
  const std::uint32_t p = part.num_intervals();
  std::vector<char> ref_changed(g.num_vertices(), 0);
  std::vector<char> blk_changed(g.num_vertices(), 0);
  bool more = true;
  std::uint32_t pass = 0;
  while (more && pass < std::min(max_passes, by_edge->max_iterations())) {
    for (std::uint32_t y = 0; y < p; ++y) {
      for (std::uint32_t x = 0; x < p; ++x) {
        std::fill(ref_changed.begin(), ref_changed.end(), 0);
        std::fill(blk_changed.begin(), blk_changed.end(), 0);
        const EdgeBlockSoA block = part.block(x, y);
        std::uint64_t ref_writes = 0;
        for (std::size_t i = 0; i < block.size(); ++i) {
          const Edge e = block.edge(i);
          if (by_edge->process_edge(e)) {
            ++ref_writes;
            ref_changed[e.dst] = 1;
          }
        }
        const std::uint64_t blk_writes =
            by_block->process_block(block, &blk_changed);
        ASSERT_EQ(ref_writes, blk_writes)
            << "block (" << x << ", " << y << ") pass " << pass;
        ASSERT_EQ(ref_changed, blk_changed)
            << "block (" << x << ", " << y << ") pass " << pass;
      }
    }
    ++pass;
    more = by_edge->end_iteration(pass);
    ASSERT_EQ(more, by_block->end_iteration(pass)) << "pass " << pass;
  }
  pc.expect_eq(*by_edge, *by_block);
}

// The pre-batching functional loop: one virtual call per edge, in the
// order `for_each_edge(visit)` visits them.
template <typename ForEachEdge>
FunctionalResult reference_run(const Graph& graph, VertexProgram& program,
                               ForEachEdge for_each_edge) {
  program.init(graph);
  FunctionalResult result;
  bool more = true;
  while (more && result.iterations < program.max_iterations()) {
    for_each_edge([&](const Edge& e) {
      result.destination_writes += program.process_edge(e) ? 1 : 0;
    });
    result.edges_traversed += graph.num_edges();
    ++result.iterations;
    more = program.end_iteration(result.iterations);
  }
  return result;
}

// What run_functional did before process_block existed.
FunctionalResult reference_run_functional(const Graph& graph,
                                          VertexProgram& program,
                                          const Partitioning& schedule) {
  return reference_run(graph, program, [&](const auto& visit) {
    const std::uint32_t p = schedule.num_intervals();
    for (std::uint32_t y = 0; y < p; ++y) {
      for (std::uint32_t x = 0; x < p; ++x) {
        const EdgeBlockSoA block = schedule.block(x, y);
        for (std::size_t i = 0; i < block.size(); ++i) visit(block.edge(i));
      }
    }
  });
}

void expect_same_run(const FunctionalResult& ref, const FunctionalResult& run) {
  EXPECT_EQ(ref.iterations, run.iterations);
  EXPECT_EQ(ref.edges_traversed, run.edges_traversed);
  EXPECT_EQ(ref.destination_writes, run.destination_writes);
}

// Runs the programs named in `labels` to convergence on the paper's
// example graph and the R-MAT, block by block in lockstep, then as a
// whole run_functional against the per-edge loop, and last as a
// whole-graph run (the P = 1 schedule) against a per-edge loop over
// the edge list in input order.
void expect_matches_per_edge_to_convergence(
    std::initializer_list<std::string_view> labels) {
  const struct {
    const char* label;
    Graph graph;
  } graphs[] = {{"paper", paper_example_graph()}, {"rmat", rmat_graph()}};
  std::size_t matched = 0;
  for (const auto& gc : graphs) {
    // Block by block, on the paper's schedule granularity.
    const Partitioning part(gc.graph, 8);
    for (const ProgramCase& pc : all_programs()) {
      if (std::find(labels.begin(), labels.end(), pc.label) == labels.end())
        continue;
      ++matched;
      SCOPED_TRACE(::testing::Message() << gc.label << "/" << pc.label);
      expect_lockstep(gc.graph, part, pc, ~std::uint32_t{0});
      // Whole run: the shipped (block-driven) run_functional against
      // the per-edge loop, counts and outputs.
      const auto ref_program = pc.make();
      const auto blk_program = pc.make();
      const FunctionalResult ref =
          reference_run_functional(gc.graph, *ref_program, part);
      const FunctionalResult blk =
          run_functional(gc.graph, *blk_program, part);
      expect_same_run(ref, blk);
      pc.expect_eq(*ref_program, *blk_program);

      const auto ref_whole_program = pc.make();
      const auto whole_program = pc.make();
      const FunctionalResult ref_whole = reference_run(
          gc.graph, *ref_whole_program, [&](const auto& visit) {
            for (const Edge& e : gc.graph.edges()) visit(e);
          });
      expect_same_run(ref_whole, run_functional(gc.graph, *whole_program));
      pc.expect_eq(*ref_whole_program, *whole_program);
    }
  }
  EXPECT_EQ(matched, labels.size() * std::size(graphs));
}

TEST(ProcessBlock, BfsMatchesPerEdge) {
  expect_matches_per_edge_to_convergence({"BFS"});
}

TEST(ProcessBlock, CcMatchesPerEdge) {
  expect_matches_per_edge_to_convergence({"CC"});
}

TEST(ProcessBlock, PageRankMatchesPerEdge) {
  expect_matches_per_edge_to_convergence({"PR"});
}

TEST(ProcessBlock, SsspMatchesPerEdge) {
  expect_matches_per_edge_to_convergence({"SSSP"});
}

TEST(ProcessBlock, SpmvMatchesPerEdge) {
  expect_matches_per_edge_to_convergence({"SpMV"});
}

TEST(ProcessBlock, GasProgramMatchesPerEdge) {
  // Both GAS programs share GasProgram::process_block, which runs each
  // Spec's own scatter_block kernel.
  expect_matches_per_edge_to_convergence({"REACH", "WIDEST"});
}

TEST(ProcessBlock, MatchesPerEdgeOnRandomBlocksAndStates) {
  std::mt19937 rng(0xC0FFEE);
  const auto cases = all_programs();
  for (int round = 0; round < 4; ++round) {
    const VertexId v = 500 + static_cast<VertexId>(rng() % 3000);
    const std::uint64_t e = static_cast<std::uint64_t>(v) * (2 + rng() % 5);
    const std::uint32_t p = 1 + rng() % 40;
    const std::uint32_t warmup = rng() % 3;
    const Graph g = generate_rmat(v, e, {}, rng());
    const Partitioning part(g, p);
    SCOPED_TRACE(::testing::Message() << "V=" << v << " E=" << e
                                      << " P=" << p << " warmup=" << warmup);
    // The warm-up passes put both programs in a (possibly
    // mid-convergence) state before the last checked pass.
    for (const ProgramCase& pc : cases) {
      SCOPED_TRACE(pc.label);
      expect_lockstep(g, part, pc, warmup + 1);
    }
  }
}

TEST(ProcessBlock, DefaultImplementationDelegatesToProcessEdge) {
  // A program that does NOT override process_block must get the base
  // class's per-edge loop, including changed tracking.
  class CountingProgram final : public VertexProgram {
   public:
    std::string name() const override { return "count"; }
    std::uint32_t vertex_value_bytes() const override { return 4; }
    std::uint32_t max_iterations() const override { return 1; }
    void init(const Graph& graph) override {
      seen_.assign(graph.num_vertices(), 0);
    }
    bool process_edge(const Edge& e) override {
      // "Changes" a destination the first time an edge reaches it.
      return ++seen_[e.dst] == 1;
    }
    bool end_iteration(std::uint32_t) override { return false; }

   private:
    std::vector<std::uint32_t> seen_;
  };

  const Graph g = paper_example_graph();
  CountingProgram prog;
  prog.init(g);
  std::vector<char> changed(g.num_vertices(), 0);
  const Partitioning whole_graph(g, 1);
  const std::uint64_t writes =
      prog.process_block(whole_graph.block(0, 0), &changed);

  CountingProgram ref;
  ref.init(g);
  std::vector<char> ref_changed(g.num_vertices(), 0);
  std::uint64_t ref_writes = 0;
  for (const Edge& e : g.edges()) {
    if (ref.process_edge(e)) {
      ++ref_writes;
      ref_changed[e.dst] = 1;
    }
  }
  EXPECT_EQ(writes, ref_writes);
  EXPECT_EQ(changed, ref_changed);
}

TEST(ProcessBlock, FrontierRunMatchesPerEdgeReference) {
  // run_frontier drives process_block with the shared changed vector;
  // fixpoints must still match the dense per-edge reference.
  const Graph g = rmat_graph();
  const Partitioning part(g, 16);
  BfsProgram dense(0);
  reference_run_functional(g, dense, part);
  BfsProgram skipped(0);
  const FrontierTrace trace = run_frontier(g, skipped, part);
  EXPECT_EQ(dense.distances(), skipped.distances());
  EXPECT_EQ(trace.num_intervals, 16u);
  EXPECT_EQ(trace.iterations(), trace.result.iterations);
}

TEST(FrontierTrace, SparseAccessorsMatchDenseExpansion) {
  const Graph g = rmat_graph();
  const Partitioning part(g, 16);
  BfsProgram bfs(0);
  const FrontierTrace trace = run_frontier(g, bfs, part);
  ASSERT_GT(trace.iterations(), 1u);
  std::vector<std::uint64_t> dense;
  std::vector<char> active;
  for (std::uint32_t iter = 0; iter < trace.iterations(); ++iter) {
    trace.expand_iteration(iter, dense);
    trace.source_activity(iter, active);
    std::uint64_t total = 0;
    std::uint64_t blocks = 0;
    for (std::uint32_t x = 0; x < 16; ++x) {
      bool row = false;
      for (std::uint32_t y = 0; y < 16; ++y) {
        const std::uint64_t e = trace.block_edges(iter, x, y);
        EXPECT_EQ(e, dense[static_cast<std::uint64_t>(x) * 16 + y]);
        total += e;
        blocks += e > 0 ? 1 : 0;
        row = row || e > 0;
      }
      EXPECT_EQ(active[x] != 0, row) << "row " << x << " iteration " << iter;
    }
    EXPECT_EQ(total, trace.edges_in_iteration(iter));
    EXPECT_EQ(blocks, trace.active_blocks_in_iteration(iter));
    // Sparse storage holds non-empty blocks only.
    EXPECT_EQ(trace.iteration_blocks[iter].size(), blocks);
  }
  EXPECT_GT(trace.approx_bytes(), sizeof(FrontierTrace));
}

TEST(ProcessBlock, WeightColumnsMatchEdgeWeight) {
  const Graph g = generate_rmat(2000, 12000, {}, 0x5EED);
  const Partitioning part(g, 8);
  const std::uint32_t max_weights[] = {1u, 7u, 64u, 1024u, 0xFFFFFFFFu};
  for (std::uint32_t y = 0; y < part.num_intervals(); ++y) {
    for (std::uint32_t x = 0; x < part.num_intervals(); ++x) {
      const EdgeBlockSoA block = part.block(x, y);
      for (const std::uint32_t max_weight : max_weights) {
        const std::uint32_t* const weight = block.weights(max_weight);
        for (std::size_t i = 0; i < block.size(); ++i)
          ASSERT_EQ(weight[i], Graph::edge_weight(block.edge(i), max_weight))
              << "max_weight " << max_weight;
      }
    }
  }
  // One 4-byte column per distinct max_weight, on top of src/dst.
  EXPECT_EQ(part.lazy_bytes(),
            g.num_edges() * (2 * sizeof(VertexId) +
                             std::size(max_weights) * sizeof(std::uint32_t)));
  EXPECT_THROW(part.edge_columns().weights(0), InvariantError);
}

TEST(ProcessBlock, PatternReuseIsTraceInvisible) {
  const struct {
    const char* label;
    Graph graph;
  } graphs[] = {
      {"rmat", generate_rmat(5000, 30000, {}, 0xBE7C)},
      {"ba", generate_barabasi_albert(5000, 6, 0xBE7C)},
  };
  const auto cases = all_programs();
  for (const auto& gc : graphs) {
    const Partitioning part(gc.graph, 16);
    for (const ProgramCase& pc : cases) {
      SCOPED_TRACE(::testing::Message() << gc.label << "/" << pc.label);
      const auto with = pc.make();
      const auto without = pc.make();
      const FrontierTrace on = run_frontier(
          gc.graph, *with, part, FrontierOptions{.pattern_reuse = true});
      const FrontierTrace off = run_frontier(
          gc.graph, *without, part, FrontierOptions{.pattern_reuse = false});
      // Replayed blocks are provably write-free, so reuse changes the
      // host's streaming volume and nothing else: results, iteration
      // counts and the per-iteration block traces are identical.
      EXPECT_EQ(on.result.iterations, off.result.iterations);
      EXPECT_EQ(on.result.destination_writes, off.result.destination_writes);
      EXPECT_EQ(on.result.edges_traversed, off.result.edges_traversed);
      EXPECT_EQ(off.edges_skipped, 0u);
      EXPECT_EQ(off.blocks_skipped, 0u);
      ASSERT_EQ(on.iteration_blocks.size(), off.iteration_blocks.size());
      for (std::size_t it = 0; it < on.iteration_blocks.size(); ++it) {
        const auto& lhs = on.iteration_blocks[it];
        const auto& rhs = off.iteration_blocks[it];
        ASSERT_EQ(lhs.size(), rhs.size()) << "iteration " << it;
        for (std::size_t i = 0; i < lhs.size(); ++i) {
          EXPECT_EQ(lhs[i].block, rhs[i].block);
          EXPECT_EQ(lhs[i].edges, rhs[i].edges);
        }
      }
      pc.expect_eq(*with, *without);
    }
  }
}

TEST(PartitionLazyMemo, ConcurrentBuildersShareOneImage) {
  const Graph g = generate_rmat(4000, 24000, {}, 0xACE5);
  const Partitioning part(g, 16);
  const Partitioning copy = part;  // shares the columns and the index
  // Sweep workers race into the same cached partitioning, half of them
  // asking for the two weight columns in the other order; every caller
  // must observe exactly one published column per max_weight and one
  // index.
  std::vector<const std::uint32_t*> w64(8, nullptr);
  std::vector<const std::uint32_t*> w1024(8, nullptr);
  std::vector<const SourceBlockIndex*> indexes(8, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        const Partitioning& mine = (t % 2 == 0) ? part : copy;
        if (t < 4) {
          w64[t] = mine.edge_columns().weights(64);
          w1024[t] = mine.edge_columns().weights(1024);
        } else {
          w1024[t] = mine.edge_columns().weights(1024);
          w64[t] = mine.edge_columns().weights(64);
        }
        indexes[t] = &mine.source_block_index();
        // Re-reads hit the published fast path.
        EXPECT_EQ(w64[t], mine.block(0, 0).weights(64));
        EXPECT_EQ(w1024[t], mine.block(0, 0).weights(1024));
        EXPECT_EQ(indexes[t], &mine.source_block_index());
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(w64[t], w64[0]);
    EXPECT_EQ(w1024[t], w1024[0]);
    EXPECT_EQ(indexes[t], indexes[0]);
  }
  EXPECT_NE(w64[0], w1024[0]);
  EXPECT_EQ(&copy.edge_columns(), &part.edge_columns());
  EXPECT_EQ(part.lazy_bytes(),
            g.num_edges() * (2 * sizeof(VertexId) + 2 * sizeof(std::uint32_t)) +
                indexes[0]->approx_bytes());
}

TEST(GraphLazyMemo, ConcurrentOutDegreeCallsShareOneTable) {
  const Graph g = generate_rmat(4000, 24000, {}, 0xDE6);
  const Graph copy = g;  // shares the table, counted or not
  std::vector<std::uint32_t> recount(g.num_vertices(), 0);
  for (const Edge& e : g.edges()) ++recount[e.src];
  std::vector<const std::vector<std::uint32_t>*> tables(8, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
      threads.emplace_back([&, t] {
        tables[t] = &((t % 2 == 0) ? g : copy).out_degrees();
      });
    for (std::thread& th : threads) th.join();
  }
  for (int t = 1; t < 8; ++t) EXPECT_EQ(tables[t], tables[0]);
  EXPECT_EQ(*tables[0], recount);
  // A copy taken after the count shares it too.
  const Graph late = g;
  EXPECT_EQ(&late.out_degrees(), tables[0]);
  // An equal graph built separately counts its own.
  const Graph rebuilt(g.num_vertices(), g.edges());
  EXPECT_NE(&rebuilt.out_degrees(), tables[0]);
  EXPECT_EQ(rebuilt.out_degrees(), recount);
}

#ifndef NDEBUG
TEST(ProcessBlock, ChangedCoverAssertThrowsInDebugBuilds) {
  const Graph g(4, {{0, 3}});
  const Partitioning part(g, 1);
  BfsProgram program;
  program.init(g);
  std::vector<char> too_small(1, 0);  // cannot index destination 3
  EXPECT_THROW(program.process_block(part.block(0, 0), &too_small),
               InvariantError);
}
#endif

}  // namespace
}  // namespace hyve
