#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partitioner.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

TEST(Partitioning, Fig1ExampleAllocatesBlocksCorrectly) {
  // The paper's running example: 8 vertices in 4 intervals of 2;
  // "edge e2.4 is allocated to B1.2 because v2 and v4 belong to I1 and
  // I2, respectively".
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_EQ(part.interval_end(0) - part.interval_begin(0), 2u);
  const EdgeBlockSoA b12 = part.block(1, 2);
  ASSERT_EQ(b12.size(), 2u);  // edges 2->4 and 3->4
  EXPECT_EQ(b12.edge(0), (Edge{2, 4}));
  EXPECT_EQ(b12.edge(1), (Edge{3, 4}));
}

TEST(Partitioning, Fig1AllBlocks) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  // Exhaustive expectations derived from Fig. 1's edge list.
  EXPECT_EQ(part.block_edge_count(0, 0), 1u);  // 1->0
  EXPECT_EQ(part.block_edge_count(0, 3), 1u);  // 0->7
  EXPECT_EQ(part.block_edge_count(1, 1), 1u);  // 2->3
  EXPECT_EQ(part.block_edge_count(1, 2), 2u);  // 2->4, 3->4
  EXPECT_EQ(part.block_edge_count(1, 3), 1u);  // 3->7
  EXPECT_EQ(part.block_edge_count(2, 0), 1u);  // 4->1
  EXPECT_EQ(part.block_edge_count(2, 2), 1u);  // 4->5
  EXPECT_EQ(part.block_edge_count(3, 0), 2u);  // 6->0, 7->1
  EXPECT_EQ(part.block_edge_count(3, 1), 1u);  // 6->2
}

TEST(Partitioning, EveryEdgeInExactlyItsBlock) {
  const Graph g = generate_rmat(1000, 8000, {}, 17);
  const Partitioning part(g, 10);
  std::uint64_t total = 0;
  for (std::uint32_t x = 0; x < 10; ++x) {
    for (std::uint32_t y = 0; y < 10; ++y) {
      const EdgeBlockSoA block = part.block(x, y);
      for (std::size_t i = 0; i < block.size(); ++i) {
        EXPECT_EQ(part.interval_of(block.edge(i).src), x);
        EXPECT_EQ(part.interval_of(block.edge(i).dst), y);
      }
      total += part.block_edge_count(x, y);
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(Partitioning, PreservesEdgeMultiset) {
  // The build is a stable counting sort: its block-major concatenation
  // is the input stably sorted by (interval of src, interval of dst).
  // In-pass propagation follows that order, so iteration counts depend
  // on it. The input is shuffled so that a sort by whole edge would fail.
  const Graph rmat = generate_rmat(400, 3000, {}, 23);
  std::vector<Edge> edges = rmat.edges();
  std::shuffle(edges.begin(), edges.end(), std::mt19937(23));
  const Graph g(rmat.num_vertices(), std::move(edges));
  const std::pair<const char*, Partitioning> schedules[] = {
      {"interval", Partitioning(g, 7)},
      {"hep:tau=2",
       make_partitioner(*parse_partitioner("hep:tau=2"))->partition(g, 7)}};
  for (const auto& [strategy, part] : schedules) {
    SCOPED_TRACE(strategy);
    std::vector<Edge> grouped;
    for (std::uint32_t x = 0; x < 7; ++x)
      for (std::uint32_t y = 0; y < 7; ++y) {
        const EdgeBlockSoA block = part.block(x, y);
        for (std::size_t i = 0; i < block.size(); ++i)
          grouped.push_back(block.edge(i));
      }
    std::vector<Edge> expected = g.edges();
    const auto block_of = [&](const Edge& e) {
      return std::pair(part.interval_of(e.src), part.interval_of(e.dst));
    };
    std::stable_sort(expected.begin(), expected.end(),
                     [&](const Edge& a, const Edge& b) {
                       return block_of(a) < block_of(b);
                     });
    EXPECT_EQ(grouped, expected);
  }
}

TEST(Partitioning, ExplicitMapKeepsInputOrderWithinBlocks) {
  // A non-contiguous map: intervals are populations, not index ranges.
  // Each block lists its edges in the order the graph holds them.
  const Graph g(6, {{4, 0}, {1, 3}, {5, 2}, {0, 2}, {3, 1}, {2, 4}, {1, 5},
                    {4, 2}, {3, 3}, {0, 4}});
  const Partitioning part(
      g, VertexMap::from_assignment({1, 0, 1, 0, 2, 2}, 3));
  EXPECT_FALSE(part.vertex_map().is_contiguous());
  const auto edges_of = [&](std::uint32_t x, std::uint32_t y) {
    std::vector<Edge> out;
    const EdgeBlockSoA block = part.block(x, y);
    for (std::size_t i = 0; i < block.size(); ++i)
      out.push_back(block.edge(i));
    return out;
  };
  EXPECT_EQ(edges_of(0, 0), (std::vector<Edge>{{1, 3}, {3, 1}, {3, 3}}));
  EXPECT_EQ(edges_of(0, 2), (std::vector<Edge>{{1, 5}}));
  EXPECT_EQ(edges_of(1, 1), (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ(edges_of(1, 2), (std::vector<Edge>{{2, 4}, {0, 4}}));
  EXPECT_EQ(edges_of(2, 1), (std::vector<Edge>{{4, 0}, {5, 2}, {4, 2}}));
  EXPECT_EQ(part.non_empty_blocks(), 5u);
}

TEST(Partitioning, PartitionerScheduleEqualsDirectBuild) {
  // Partitioner::partition and the Partitioning constructors share one
  // build: over the same map they lay out the same columns.
  const Graph g = generate_rmat(500, 4000, {}, 41);
  const auto columns_of = [](const Partitioning& part) {
    const EdgeBlockSoA all = part.edge_columns().all();
    return std::pair(
        std::vector<VertexId>(all.sources().begin(), all.sources().end()),
        std::vector<VertexId>(all.destinations().begin(),
                              all.destinations().end()));
  };
  for (const char* strategy : {"interval", "hep:tau=2"}) {
    SCOPED_TRACE(strategy);
    const auto partitioner = make_partitioner(*parse_partitioner(strategy));
    const Partitioning scheduled = partitioner->partition(g, 6);
    const Partitioning direct(g, partitioner->map_vertices(g, 6));
    EXPECT_EQ(columns_of(scheduled), columns_of(direct));
    for (std::uint32_t x = 0; x < 6; ++x)
      for (std::uint32_t y = 0; y < 6; ++y)
        EXPECT_EQ(scheduled.block_edge_count(x, y),
                  direct.block_edge_count(x, y));
    EXPECT_EQ(scheduled.replication().copies, direct.replication().copies);
    EXPECT_EQ(scheduled.replication().touched, direct.replication().touched);
  }
  const Partitioning interval =
      make_partitioner(*parse_partitioner("interval"))->partition(g, 6);
  EXPECT_EQ(columns_of(interval), columns_of(Partitioning(g, 6)));
}

TEST(Partitioning, EdgelessGraphBuildsAnEmptyGrid) {
  const Graph g(10, {});
  const Partitioning part(g, 3);
  EXPECT_EQ(part.num_edges(), 0u);
  EXPECT_EQ(part.non_empty_blocks(), 0u);
  for (std::uint32_t x = 0; x < 3; ++x)
    for (std::uint32_t y = 0; y < 3; ++y)
      EXPECT_EQ(part.block(x, y).size(), 0u);
  EXPECT_EQ(part.replication().copies, 0u);
  EXPECT_EQ(part.replication().touched, 0u);
}

TEST(Partitioning, RejectsVertexMapOfAnotherSize) {
  const Graph g = paper_example_graph();  // 8 vertices
  EXPECT_THROW(Partitioning(g, VertexMap::uniform(7, 2)), InvariantError);
  EXPECT_THROW(Partitioning(g, VertexMap::uniform(9, 2)), InvariantError);
}

TEST(Partitioning, ResidentBytesCountEveryImageItHolds) {
  const Graph g = generate_rmat(1000, 8000, {}, 19);
  const VertexId v = g.num_vertices();
  std::vector<std::uint32_t> assignment(v);
  for (VertexId i = 0; i < v; ++i) assignment[i] = i % 10;
  // Uniform maps hold P populations and P+1 range starts; this explicit
  // (non-contiguous) one holds V assignments and P populations.
  const struct {
    VertexMap map;
    std::size_t map_bytes;
  } cases[] = {
      {VertexMap::uniform(v, 10), (10 + 11) * sizeof(VertexId)},
      {VertexMap::from_assignment(assignment, 10),
       (v + 10) * sizeof(std::uint32_t)},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.map.resident_bytes(), c.map_bytes);
    const Partitioning part(g, c.map);
    const std::size_t e = part.num_edges();
    // The build leaves the src/dst columns (8 B/edge), the block offsets,
    // the map and the out-degree table (4 B/vertex), and nothing else.
    const std::size_t columns = e * 2 * sizeof(VertexId);
    const std::size_t built = columns +
                              (part.num_blocks() + 1) * sizeof(std::uint64_t) +
                              c.map_bytes + v * sizeof(std::uint32_t);
    EXPECT_EQ(part.out_degrees(), g.out_degrees());
    EXPECT_EQ(part.lazy_bytes(), columns);
    EXPECT_EQ(part.resident_bytes(), built);
    // Each weight column adds 4 B/edge on first use, once per
    // max_weight.
    part.edge_columns().weights(64);
    part.edge_columns().weights(64);
    EXPECT_EQ(part.resident_bytes(), built + e * sizeof(std::uint32_t));
    part.edge_columns().weights(1024);
    const std::size_t weighted = built + 2 * e * sizeof(std::uint32_t);
    EXPECT_EQ(part.resident_bytes(), weighted);
    // perfbench's bytes-per-edge formula reads exactly the edge images.
    EXPECT_TRUE(part.grouped_edges().empty());
    EXPECT_EQ(part.grouped_edges().capacity() * sizeof(Edge) +
                  part.lazy_bytes(),
              columns + 2 * e * sizeof(std::uint32_t));
  }
}

TEST(Partitioning, IntervalGeometry) {
  const Graph g(10, {});
  const Partitioning part(g, 3);
  EXPECT_TRUE(part.vertex_map().is_contiguous());
  EXPECT_EQ(part.interval_end(0) - part.interval_begin(0), 4u);  // ceil(10/3)
  EXPECT_EQ(part.interval_begin(0), 0u);
  EXPECT_EQ(part.interval_end(0), 4u);
  EXPECT_EQ(part.interval_begin(2), 8u);
  EXPECT_EQ(part.interval_end(2), 10u);  // clamped to V
  EXPECT_EQ(part.interval_population(2), 2u);
}

TEST(Partitioning, IntervalPopulationsSumToV) {
  const Graph g = generate_rmat(997, 2000, {}, 29);  // prime V
  for (std::uint32_t p : {1u, 2u, 5u, 8u, 13u, 100u}) {
    const Partitioning part(g, p);
    std::uint64_t pop = 0;
    for (std::uint32_t i = 0; i < p; ++i) pop += part.interval_population(i);
    EXPECT_EQ(pop, 997u) << "P=" << p;
  }
}

TEST(Partitioning, SingleIntervalHoldsEverything) {
  // The P = 1 schedule is every whole-graph run's edge stream, so the
  // stable counting sort must leave its one block in input order,
  // parallel edges and self-loops included.
  const Graph rmat = generate_rmat(100, 500, {}, 31);
  std::vector<Edge> edges = rmat.edges();
  edges.push_back(edges.front());
  edges.push_back(edges[edges.size() / 2]);
  edges.push_back({7, 7});
  edges.push_back({0, 0});
  edges.push_back({7, 7});
  const Graph g(rmat.num_vertices(), std::move(edges));
  const Partitioning part(g, 1);
  EXPECT_EQ(part.block_edge_count(0, 0), g.num_edges());
  EXPECT_EQ(part.non_empty_blocks(), 1u);
  const EdgeBlockSoA block = part.block(0, 0);
  ASSERT_EQ(block.size(), g.num_edges());
  for (std::size_t i = 0; i < block.size(); ++i)
    EXPECT_EQ(block.edge(i), g.edges()[i]) << "edge " << i;
}

TEST(Partitioning, RejectsMoreIntervalsThanVertices) {
  const Graph g(4, {});
  EXPECT_THROW(Partitioning(g, 5), InvariantError);
}

TEST(Partitioning, RejectsOutOfRangeBlockQueries) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_THROW(part.block(4, 0), InvariantError);
  EXPECT_THROW(part.block_edge_count(0, 4), InvariantError);
}

TEST(Partitioning, NonEmptyBlockCount) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_EQ(part.non_empty_blocks(), 9u);  // from the Fig. 1 layout
}

// Property sweep: partition invariants across interval counts.
class PartitionSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionSweep, BlockMembershipInvariant) {
  const std::uint32_t p = GetParam();
  const Graph g = generate_rmat(640, 5000, {}, 37);
  const Partitioning part(g, p);
  std::uint64_t total = 0;
  for (std::uint32_t x = 0; x < p; ++x)
    for (std::uint32_t y = 0; y < p; ++y) {
      const EdgeBlockSoA block = part.block(x, y);
      for (std::size_t i = 0; i < block.size(); ++i) {
        const Edge e = block.edge(i);
        EXPECT_EQ(part.interval_of(e.src), x);
        EXPECT_EQ(part.interval_of(e.dst), y);
        EXPECT_GE(e.src, part.interval_begin(x));
        EXPECT_LT(e.src, part.interval_end(x));
        EXPECT_GE(e.dst, part.interval_begin(y));
        EXPECT_LT(e.dst, part.interval_end(y));
      }
      total += part.block_edge_count(x, y);
    }
  EXPECT_EQ(total, g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(IntervalCounts, PartitionSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 31, 64, 128,
                                           640));

}  // namespace
}  // namespace hyve
