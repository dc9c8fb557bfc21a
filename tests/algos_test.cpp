#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "algos/runner.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace hyve {
namespace {

// ---------- reference implementations ----------

std::vector<double> reference_pagerank(const Graph& g, int iters,
                                       double d = 0.85) {
  const VertexId v = g.num_vertices();
  std::vector<double> rank(v, 1.0 / v);
  const auto out = g.out_degrees();
  for (int it = 0; it < iters; ++it) {
    std::vector<double> next(v, (1.0 - d) / v);
    for (const Edge& e : g.edges())
      if (out[e.src] > 0) next[e.dst] += d * rank[e.src] / out[e.src];
    rank = std::move(next);
  }
  return rank;
}

std::vector<std::uint32_t> reference_bfs(const Graph& g, VertexId root) {
  const Csr csr = Csr::from_graph(g);
  std::vector<std::uint32_t> dist(g.num_vertices(), BfsProgram::kUnreached);
  std::queue<VertexId> q;
  dist[root] = 0;
  q.push(root);
  while (!q.empty()) {
    const VertexId u = q.front();
    q.pop();
    for (auto i = csr.row_offsets[u]; i < csr.row_offsets[u + 1]; ++i) {
      const VertexId w = csr.neighbors[i];
      if (dist[w] == BfsProgram::kUnreached) {
        dist[w] = dist[u] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

// Fixpoint of label[dst] <- min(label[dst], label[src]) by brute force.
std::vector<VertexId> reference_forward_labels(const Graph& g) {
  std::vector<VertexId> label(g.num_vertices());
  std::iota(label.begin(), label.end(), VertexId{0});
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : g.edges())
      if (label[e.src] < label[e.dst]) {
        label[e.dst] = label[e.src];
        changed = true;
      }
  }
  return label;
}

// Union-find WCC for the symmetrised-CC test.
std::vector<VertexId> reference_wcc(const Graph& g) {
  std::vector<VertexId> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), VertexId{0});
  std::function<VertexId(VertexId)> find = [&](VertexId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const Edge& e : g.edges()) {
    const VertexId a = find(e.src);
    const VertexId b = find(e.dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<VertexId> rep(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) rep[v] = find(v);
  return rep;
}

std::vector<std::uint64_t> reference_sssp(const Graph& g, VertexId root,
                                          std::uint32_t max_w) {
  std::vector<std::uint64_t> dist(g.num_vertices(), SsspProgram::kUnreached);
  dist[root] = 0;
  for (VertexId i = 0; i + 1 < g.num_vertices(); ++i) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      if (dist[e.src] == SsspProgram::kUnreached) continue;
      const auto cand = dist[e.src] + Graph::edge_weight(e, max_w);
      if (cand < dist[e.dst]) {
        dist[e.dst] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

// ---------- PageRank ----------

TEST(PageRank, MatchesReferenceOnSmallGraph) {
  const Graph g = paper_example_graph();
  PageRankProgram pr(10);
  run_functional(g, pr);
  const auto expected = reference_pagerank(g, 10);
  ASSERT_EQ(pr.ranks().size(), expected.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(pr.ranks()[v], expected[v], 1e-6) << "vertex " << v;
}

TEST(PageRank, RunsExactlyConfiguredIterations) {
  const Graph g = paper_example_graph();
  PageRankProgram pr(7);
  const auto result = run_functional(g, pr);
  EXPECT_EQ(result.iterations, 7u);
  EXPECT_EQ(result.edges_traversed, 7 * g.num_edges());
}

TEST(PageRank, MassStaysBounded) {
  // With dangling vertices some mass leaks (standard edge-centric PR);
  // total rank stays in (0, 1].
  const Graph g = generate_rmat(2000, 10000, {}, 51);
  PageRankProgram pr(10);
  run_functional(g, pr);
  const double sum =
      std::accumulate(pr.ranks().begin(), pr.ranks().end(), 0.0);
  EXPECT_GT(sum, 0.2);
  EXPECT_LE(sum, 1.0 + 1e-9);
}

TEST(PageRank, HubsOutrankLeaves) {
  // Star graph: everything points at vertex 0.
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 20; ++v) edges.push_back({v, 0});
  const Graph g(20, edges);
  PageRankProgram pr(10);
  run_functional(g, pr);
  for (VertexId v = 1; v < 20; ++v)
    EXPECT_GT(pr.ranks()[0], pr.ranks()[v]);
}

TEST(PageRank, BlockScheduleGivesSameResult) {
  // Synchronous PR is order-independent: running in interval-block order
  // must give identical ranks to edge-list order.
  const Graph g = generate_rmat(500, 3000, {}, 53);
  PageRankProgram a(5);
  run_functional(g, a);
  PageRankProgram b(5);
  const Partitioning part(g, 10);
  run_functional(g, b, part);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(a.ranks()[v], b.ranks()[v], 1e-9);
}

// ---------- BFS ----------

TEST(Bfs, MatchesReferenceFromFixedRoot) {
  const Graph g = generate_rmat(1000, 6000, {}, 57);
  BfsProgram bfs(0);
  run_functional(g, bfs);
  EXPECT_EQ(bfs.distances(), reference_bfs(g, 0));
}

TEST(Bfs, AutoRootPicksMaxOutDegree) {
  std::vector<Edge> edges{{3, 0}, {3, 1}, {3, 2}, {0, 1}};
  const Graph g(5, edges);
  BfsProgram bfs;
  run_functional(g, bfs);
  EXPECT_EQ(bfs.root(), 3u);
  EXPECT_EQ(bfs.distances()[3], 0u);
}

TEST(Bfs, IterationsEqualEccentricityPlusOne) {
  // Path graph 0->1->2->3 with edges listed in anti-topological order so
  // each pass settles exactly one depth level; one extra pass detects
  // convergence. (In-pass propagation can converge faster with a
  // favourable edge order — see NumberOfPassesDependsOnEdgeOrder.)
  const Graph g(4, {{2, 3}, {1, 2}, {0, 1}});
  BfsProgram bfs(0);
  const auto result = run_functional(g, bfs);
  EXPECT_EQ(bfs.distances()[3], 3u);
  EXPECT_EQ(result.iterations, 4u);
}

TEST(Bfs, NumberOfPassesDependsOnEdgeOrder) {
  // With edges in topological order the whole path settles in one pass.
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  BfsProgram bfs(0);
  const auto result = run_functional(g, bfs);
  EXPECT_EQ(bfs.distances()[3], 3u);
  EXPECT_EQ(result.iterations, 2u);
}

TEST(Bfs, UnreachableVerticesStayUnreached) {
  const Graph g(5, {{0, 1}, {1, 2}});
  BfsProgram bfs(0);
  run_functional(g, bfs);
  EXPECT_EQ(bfs.distances()[3], BfsProgram::kUnreached);
  EXPECT_EQ(bfs.distances()[4], BfsProgram::kUnreached);
}

// ---------- CC ----------

TEST(Cc, ForwardFixpointMatchesReference) {
  const Graph g = generate_rmat(800, 4000, {}, 59);
  CcProgram cc;
  run_functional(g, cc);
  EXPECT_EQ(cc.labels(), reference_forward_labels(g));
}

TEST(Cc, SymmetrizedComputesWeaklyConnectedComponents) {
  const Graph g = generate_rmat(600, 1200, {}, 61);
  const Graph sym = symmetrized(g);
  CcProgram cc;
  run_functional(sym, cc);
  const auto wcc = reference_wcc(g);
  // Same partition: two vertices share a label iff they share a component.
  for (VertexId a = 0; a < g.num_vertices(); a += 7)
    for (VertexId b = a + 1; b < g.num_vertices(); b += 13)
      EXPECT_EQ(cc.labels()[a] == cc.labels()[b], wcc[a] == wcc[b])
          << a << " vs " << b;
}

TEST(Cc, SymmetrizedContainsBothDirections) {
  const Graph g(3, {{0, 1}, {1, 2}});
  const Graph sym = symmetrized(g);
  EXPECT_EQ(sym.num_edges(), 4u);
  const auto& edges = sym.edges();
  EXPECT_NE(std::find(edges.begin(), edges.end(), Edge{1, 0}), edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), Edge{2, 1}), edges.end());
}

TEST(Cc, LabelsAreComponentMinima) {
  const Graph g(6, {{0, 1}, {1, 0}, {4, 5}});
  CcProgram cc;
  run_functional(g, cc);
  EXPECT_EQ(cc.labels()[1], 0u);
  EXPECT_EQ(cc.labels()[5], 4u);
  EXPECT_EQ(cc.labels()[3], 3u);  // isolated keeps its own id
}

// ---------- SSSP ----------

TEST(Sssp, MatchesBellmanFord) {
  const Graph g = generate_rmat(700, 4000, {}, 63);
  SsspProgram sssp(0);
  run_functional(g, sssp);
  EXPECT_EQ(sssp.distances(), reference_sssp(g, 0, 64));
}

TEST(Sssp, DistancesRespectEdgeRelaxation) {
  const Graph g = generate_rmat(300, 1500, {}, 67);
  SsspProgram sssp(0);
  run_functional(g, sssp);
  const auto& dist = sssp.distances();
  for (const Edge& e : g.edges()) {
    if (dist[e.src] == SsspProgram::kUnreached) continue;
    EXPECT_LE(dist[e.dst], dist[e.src] + Graph::edge_weight(e, 64));
  }
}

TEST(Sssp, RootDistanceZero) {
  const Graph g = generate_rmat(100, 400, {}, 69);
  SsspProgram sssp(5);
  run_functional(g, sssp);
  EXPECT_EQ(sssp.distances()[5], 0u);
}

// ---------- SpMV ----------

TEST(Spmv, SingleIteration) {
  const Graph g = generate_rmat(200, 900, {}, 71);
  SpmvProgram spmv;
  const auto result = run_functional(g, spmv);
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.edges_traversed, g.num_edges());
}

TEST(Spmv, MatchesDirectComputation) {
  const Graph g = generate_rmat(150, 700, {}, 73);
  SpmvProgram spmv;
  run_functional(g, spmv);
  std::vector<double> expected(g.num_vertices(), 0.0);
  for (const Edge& e : g.edges())
    expected[e.dst] +=
        SpmvProgram::matrix_value(e) * SpmvProgram::input_value(e.src);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(spmv.result()[v], expected[v], 1e-9);
}

// ---------- factory / runner ----------

TEST(Runner, FactoryCoversAllAlgorithms) {
  for (const Algorithm a : kAllAlgorithms) {
    const auto prog = make_program(a);
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->name(), algorithm_name(a));
    EXPECT_GT(prog->vertex_value_bytes(), 0u);
  }
}

TEST(Runner, PrVertexRecordWiderThanBfs) {
  // §7.3.1: "the bit width of a vertex in the PR algorithm is wider than
  // the other two algorithms" — this drives Fig. 14's PR advantage.
  EXPECT_GT(make_program(Algorithm::kPageRank)->vertex_value_bytes(),
            make_program(Algorithm::kBfs)->vertex_value_bytes());
  EXPECT_GT(make_program(Algorithm::kPageRank)->vertex_value_bytes(),
            make_program(Algorithm::kCc)->vertex_value_bytes());
}

TEST(Runner, DestinationWritesCounted) {
  const Graph g(3, {{0, 1}, {1, 2}});
  BfsProgram bfs(0);
  const auto result = run_functional(g, bfs);
  // Pass 1 writes dist[1]; pass 2 writes dist[2]; pass 3 writes nothing.
  EXPECT_EQ(result.destination_writes, 2u);
}

// Convergence property over random graphs: BFS and CC always converge
// within V passes, SSSP within V passes.
class ConvergenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceSweep, AllAlgorithmsConverge) {
  const Graph g = generate_rmat(400, 2500, {}, GetParam());
  for (const Algorithm a : kAllAlgorithms) {
    const auto prog = make_program(a);
    const auto result = run_functional(g, *prog);
    EXPECT_LE(result.iterations, 400u) << algorithm_name(a);
    EXPECT_GE(result.iterations, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceSweep,
                         ::testing::Values(101, 102, 103, 104, 105));

}  // namespace
}  // namespace hyve
