#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

TEST(Rmat, ProducesRequestedSize) {
  const Graph g = generate_rmat(1000, 5000, {}, 1);
  EXPECT_EQ(g.num_vertices(), 1000u);
  // Deduplicated generation may fall slightly short but never overshoots.
  EXPECT_LE(g.num_edges(), 5000u);
  EXPECT_GE(g.num_edges(), 4500u);
}

TEST(Rmat, Deterministic) {
  const Graph a = generate_rmat(512, 2000, {}, 42);
  const Graph b = generate_rmat(512, 2000, {}, 42);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Rmat, SeedChangesGraph) {
  const Graph a = generate_rmat(512, 2000, {}, 1);
  const Graph b = generate_rmat(512, 2000, {}, 2);
  EXPECT_NE(a.edges(), b.edges());
}

TEST(Rmat, NoDuplicateEdgesWhenDeduplicated) {
  const Graph g = generate_rmat(256, 3000, {}, 7);
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
}

TEST(Rmat, NoSelfLoopsByDefault) {
  const Graph g = generate_rmat(256, 2000, {}, 3);
  for (const Edge& e : g.edges()) EXPECT_NE(e.src, e.dst);
}

TEST(Rmat, AllEndpointsInRange) {
  // num_vertices below the power-of-two scale: rejection must hold.
  const Graph g = generate_rmat(300, 1500, {}, 4);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.src, 300u);
    EXPECT_LT(e.dst, 300u);
  }
}

TEST(Rmat, RejectsBadProbabilities) {
  RmatParams p;
  p.a = 0.9;  // sum now > 1
  EXPECT_THROW(generate_rmat(64, 100, p, 1), InvariantError);
}

TEST(Rmat, RejectsDegenerateVertexCount) {
  EXPECT_THROW(generate_rmat(1, 10, {}, 1), InvariantError);
  // Above 2^31 the power-of-two scale no longer fits a 32-bit id.
  EXPECT_THROW(generate_rmat(kMaxRmatVertices + 1, 10, {}, 1),
               InvariantError);
}

TEST(Rmat, TopVertexCountStillGeneratesEdges) {
  // 2^31 is the largest accepted count: the quadrant descent spans all
  // 31 id bits, so edges reach the upper half of the id space.
  const Graph g = generate_rmat(kMaxRmatVertices, 1000, {}, 1);
  EXPECT_EQ(g.num_edges(), 1000u);
  EXPECT_TRUE(std::any_of(g.edges().begin(), g.edges().end(),
                          [](const Edge& e) {
                            return e.src >= VertexId{1} << 30;
                          }));
}

TEST(Rmat, RequestBeyondDistinctEdgesReturnsEveryEdge) {
  // V = 2 has only two distinct non-loop edges. Asking for more ends
  // after the bounded oversampling rounds, with both of them.
  const Graph g = generate_rmat(2, 10, {}, 1);
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {1, 0}}));
}

TEST(Rmat, SkewedParamsProduceSkewedDegrees) {
  RmatParams skewed{0.7, 0.15, 0.1, 0.05, false, true};
  const Graph s = generate_rmat(4096, 40000, skewed, 5);
  const Graph u = generate_erdos_renyi(4096, 40000, 5);
  const DegreeStats ss = degree_stats(s);
  const DegreeStats us = degree_stats(u);
  // R-MAT hubs concentrate edges; ER does not.
  EXPECT_GT(ss.top1pct_out_edge_share, 2.0 * us.top1pct_out_edge_share);
  EXPECT_GT(ss.max_out_degree, 3 * us.max_out_degree);
}

TEST(ErdosRenyi, ExactEdgeCount) {
  const Graph g = generate_erdos_renyi(500, 3000, 9);
  EXPECT_EQ(g.num_edges(), 3000u);
  EXPECT_EQ(g.num_vertices(), 500u);
}

TEST(ErdosRenyi, NoDuplicatesOrSelfLoops) {
  const Graph g = generate_erdos_renyi(200, 2000, 11);
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) EXPECT_NE(e.src, e.dst);
}

TEST(ErdosRenyi, RejectsImpossibleDensity) {
  EXPECT_THROW(generate_erdos_renyi(10, 89, 1), InvariantError);
}

TEST(ErdosRenyi, Deterministic) {
  EXPECT_EQ(generate_erdos_renyi(128, 500, 3).edges(),
            generate_erdos_renyi(128, 500, 3).edges());
}

// Property sweep over seeds: structural invariants hold for any seed.
class RmatPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmatPropertyTest, StructuralInvariants) {
  const std::uint64_t seed = GetParam();
  const Graph g = generate_rmat(777, 4000, {}, seed);
  EXPECT_EQ(g.num_vertices(), 777u);
  EXPECT_GT(g.num_edges(), 3500u);
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
  for (const Edge& e : edges) {
    EXPECT_LT(e.src, 777u);
    EXPECT_LT(e.dst, 777u);
    EXPECT_NE(e.src, e.dst);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmatPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace hyve
