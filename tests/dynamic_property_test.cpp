// Property test: DynamicGraphStore against a trivial reference model
// (an edge multiset + a vertex-validity vector) over long random
// operation sequences, for both the HyVE and GraphR layouts, with and
// without reserved slack, on an R-MAT graph and on a 16-vertex graph of
// stacked parallel edges. Zero slack and the crowded graph keep blocks
// overflowing (so they move to the arena tail) and make most deletes hit
// an edge with duplicates, often the block's last edge.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

struct ReferenceModel {
  std::multiset<std::pair<VertexId, VertexId>> edges;
  std::vector<bool> valid;

  explicit ReferenceModel(const Graph& g) : valid(g.num_vertices(), true) {
    for (const Edge& e : g.edges()) edges.insert({e.src, e.dst});
  }

  bool add_edge(Edge e) {
    if (e.src >= valid.size() || e.dst >= valid.size()) return false;
    edges.insert({e.src, e.dst});
    return true;
  }
  bool delete_edge(Edge e) {
    const auto it = edges.find({e.src, e.dst});
    if (it == edges.end()) return false;
    edges.erase(it);
    return true;
  }
  VertexId add_vertex() {
    valid.push_back(true);
    return static_cast<VertexId>(valid.size() - 1);
  }
  bool delete_vertex(VertexId v) {
    if (v >= valid.size() || !valid[v]) return false;
    valid[v] = false;
    return true;
  }
};

std::multiset<std::pair<VertexId, VertexId>> snapshot_edges(
    const DynamicGraphStore& store) {
  std::multiset<std::pair<VertexId, VertexId>> s;
  const Graph snapshot = store.snapshot();  // keep alive across the loop
  for (const Edge& e : snapshot.edges()) s.insert({e.src, e.dst});
  return s;
}

enum class Shape { kRmat, kParallelEdges };

void PrintTo(Shape shape, std::ostream* os) {
  *os << (shape == Shape::kRmat ? "rmat" : "parallel-edges");
}

// 16 vertices, 400 edges: every pair carries parallel edges.
constexpr VertexId kParallelVertices = 16;
Graph parallel_edge_graph(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int i = 0; i < 400; ++i)
    edges.push_back({static_cast<VertexId>(rng.next_below(kParallelVertices)),
                     static_cast<VertexId>(rng.next_below(kParallelVertices))});
  return Graph(kParallelVertices, std::move(edges));
}

class DynamicPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<bool, double, Shape, std::uint64_t>> {};

TEST_P(DynamicPropertyTest, AgreesWithReferenceModel) {
  const auto [hashed, slack, shape, seed] = GetParam();
  const Graph g = shape == Shape::kRmat ? generate_rmat(600, 2500, {}, seed)
                                        : parallel_edge_graph(seed);
  DynamicGraphOptions options;
  options.num_intervals = hashed ? (g.num_vertices() + 7) / 8 : 6;
  options.hashed_block_directory = hashed;
  options.slack = slack;

  DynamicGraphStore store(g, options);
  ReferenceModel ref(g);
  Rng rng(seed * 31 + 7);
  // Added edges stay among the original vertices of the crowded graph so
  // they keep stacking onto existing pairs.
  const auto endpoint = [&] {
    const VertexId range = shape == Shape::kRmat ? store.num_vertices() + 2
                                                 : kParallelVertices + 2;
    return static_cast<VertexId>(rng.next_below(range));
  };

  for (int op = 0; op < 4000; ++op) {
    const double r = rng.next_double();
    if (r < 0.40) {
      const Edge e{endpoint(), endpoint()};
      EXPECT_EQ(store.add_edge(e), ref.add_edge(e)) << "op " << op;
    } else if (r < 0.80) {
      // Bias deletions towards edges likely to exist.
      Edge e;
      if (!ref.edges.empty() && rng.next_bool(0.8)) {
        auto it = ref.edges.begin();
        std::advance(it, rng.next_below(std::min<std::uint64_t>(
                             ref.edges.size(), 50)));
        e = {it->first, it->second};
      } else {
        e = {static_cast<VertexId>(rng.next_below(store.num_vertices())),
             static_cast<VertexId>(rng.next_below(store.num_vertices()))};
      }
      EXPECT_EQ(store.delete_edge(e), ref.delete_edge(e)) << "op " << op;
    } else if (r < 0.90) {
      EXPECT_EQ(store.add_vertex(), ref.add_vertex()) << "op " << op;
    } else {
      const auto v =
          static_cast<VertexId>(rng.next_below(store.num_vertices() + 1));
      EXPECT_EQ(store.delete_vertex(v), ref.delete_vertex(v)) << "op " << op;
    }

    EXPECT_EQ(store.num_edges(), ref.edges.size()) << "op " << op;
    if (op % 500 == 499) {
      // Periodic deep check: full edge multiset and vertex validity.
      ASSERT_EQ(snapshot_edges(store), ref.edges) << "op " << op;
      for (VertexId v = 0; v < store.num_vertices(); ++v)
        ASSERT_EQ(store.is_vertex_valid(v), ref.valid[v]) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DynamicPropertyTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0.30, 0.0),
                       ::testing::Values(Shape::kRmat, Shape::kParallelEdges),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

}  // namespace
}  // namespace hyve
