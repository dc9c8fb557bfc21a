#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ranges>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/requests.hpp"
#include "graph/generators.hpp"

namespace hyve {
namespace {

DynamicGraphOptions hyve_options(std::uint32_t intervals = 8) {
  DynamicGraphOptions o;
  o.num_intervals = intervals;
  return o;
}

// GraphR's 8x8-vertex blocks behind the hashed directory.
DynamicGraphOptions graphr_options(const Graph& g) {
  DynamicGraphOptions o;
  o.num_intervals = (g.num_vertices() + 7) / 8;
  o.hashed_block_directory = true;
  return o;
}

Graph small_graph() { return generate_rmat(1000, 5000, {}, 777); }

std::multiset<std::pair<VertexId, VertexId>> edge_multiset(const Graph& g) {
  std::multiset<std::pair<VertexId, VertexId>> s;
  for (const Edge& e : g.edges()) s.insert({e.src, e.dst});
  return s;
}

TEST(DynamicGraph, SnapshotPreservesInitialEdges) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  EXPECT_EQ(store.num_edges(), g.num_edges());
  EXPECT_EQ(edge_multiset(store.snapshot()), edge_multiset(g));
}

TEST(DynamicGraph, AddEdgeAppears) {
  DynamicGraphStore store(Graph(10, {{0, 1}}), hyve_options(2));
  EXPECT_TRUE(store.add_edge({3, 7}));
  EXPECT_EQ(store.num_edges(), 2u);
  const auto edges = edge_multiset(store.snapshot());
  EXPECT_EQ(edges.count({3, 7}), 1u);
}

TEST(DynamicGraph, AddEdgeRejectsOutOfRange) {
  DynamicGraphStore store(Graph(4, {}), hyve_options(2));
  EXPECT_FALSE(store.add_edge({0, 9}));
  EXPECT_EQ(store.num_edges(), 0u);
}

TEST(DynamicGraph, DeleteEdgeRemovesOneOccurrence) {
  DynamicGraphStore store(Graph(4, {{0, 1}, {0, 1}, {2, 3}}),
                          hyve_options(2));
  EXPECT_TRUE(store.delete_edge({0, 1}));
  EXPECT_EQ(store.num_edges(), 2u);
  EXPECT_EQ(edge_multiset(store.snapshot()).count({0, 1}), 1u);
}

TEST(DynamicGraph, DeleteMissingEdgeFails) {
  DynamicGraphStore store(Graph(4, {{0, 1}}), hyve_options(2));
  EXPECT_FALSE(store.delete_edge({1, 0}));
  EXPECT_EQ(store.num_edges(), 1u);
}

TEST(DynamicGraph, AddDeleteRoundTrip) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  for (VertexId v = 0; v < 100; ++v)
    ASSERT_TRUE(store.add_edge({v, (v + 1) % 100}));
  for (VertexId v = 0; v < 100; ++v)
    ASSERT_TRUE(store.delete_edge({v, (v + 1) % 100}));
  EXPECT_EQ(store.num_edges(), g.num_edges());
}

TEST(DynamicGraph, SlackAbsorbsGrowthWithoutPreprocessing) {
  // §5: O(1) adds into reserved space; no preprocessing triggered.
  DynamicGraphStore store(small_graph(), hyve_options());
  for (int i = 0; i < 500; ++i)
    store.add_edge({static_cast<VertexId>(i % 1000),
                    static_cast<VertexId>((i * 7 + 1) % 1000)});
  EXPECT_EQ(store.preprocess_count(), 0u);
}

TEST(DynamicGraph, OverflowChainsWhenSlackExhausted) {
  // Tiny graph, all adds into one block: slack must run out and chain.
  DynamicGraphStore store(Graph(4, {{0, 1}}), hyve_options(1));
  for (int i = 0; i < 100; ++i) store.add_edge({0, 1});
  EXPECT_GT(store.overflow_chunks(), 0u);
  EXPECT_EQ(store.num_edges(), 101u);
  EXPECT_EQ(store.preprocess_count(), 0u);  // blocks chain, never rebuild
}

TEST(DynamicGraph, AddVertexWithinSlack) {
  DynamicGraphStore store(Graph(100, {}), hyve_options(4));
  const VertexId v = store.add_vertex();
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(store.num_vertices(), 101u);
  EXPECT_TRUE(store.is_vertex_valid(v));
  EXPECT_EQ(store.preprocess_count(), 0u);
}

TEST(DynamicGraph, VertexOverflowTriggersRebuild) {
  // 30% slack on 100 vertices = 31 spare slots; the 32nd add rebuilds.
  DynamicGraphStore store(Graph(100, {{0, 1}, {50, 99}}), hyve_options(4));
  for (int i = 0; i < 40; ++i) store.add_vertex();
  EXPECT_GE(store.preprocess_count(), 1u);
  EXPECT_EQ(store.num_vertices(), 140u);
  // Edges survive the rebuild.
  EXPECT_EQ(store.num_edges(), 2u);
  EXPECT_EQ(edge_multiset(store.snapshot()).count({50, 99}), 1u);
}

TEST(DynamicGraph, DeleteVertexInvalidatesValueOnly) {
  DynamicGraphStore store(Graph(10, {{2, 3}}), hyve_options(2));
  EXPECT_TRUE(store.delete_vertex(2));
  EXPECT_FALSE(store.is_vertex_valid(2));
  EXPECT_FALSE(store.delete_vertex(2));  // already invalid
  // §5: edges remain in place.
  EXPECT_EQ(store.num_edges(), 1u);
}

TEST(DynamicGraph, AddedVertexCanReceiveEdges) {
  DynamicGraphStore store(Graph(10, {}), hyve_options(2));
  const VertexId v = store.add_vertex();
  EXPECT_TRUE(store.add_edge({0, v}));
  EXPECT_EQ(edge_multiset(store.snapshot()).count({0, v}), 1u);
}

TEST(DynamicGraph, HashedDirectoryBehavesIdentically) {
  const Graph g = small_graph();
  DynamicGraphOptions hashed;
  hashed.num_intervals = 125;  // GraphR-style fine grid
  hashed.hashed_block_directory = true;
  DynamicGraphStore a(g, hyve_options());
  DynamicGraphStore b(g, hashed);
  for (int i = 0; i < 200; ++i) {
    const Edge e{static_cast<VertexId>(i % 997),
                 static_cast<VertexId>((3 * i + 5) % 997)};
    EXPECT_EQ(a.add_edge(e), b.add_edge(e));
  }
  for (const Edge& e : g.edges() | std::views::take(200)) {
    EXPECT_EQ(a.delete_edge(e), b.delete_edge(e));
  }
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(edge_multiset(a.snapshot()), edge_multiset(b.snapshot()));
}

TEST(DynamicGraph, SlackAccountingPinnedOnRequestStream) {
  // §5 accounting on a fixed R-MAT graph and request stream: how many
  // overflow chunks each layout chains and how often the vertex slack
  // forces re-preprocessing. The counts depend only on per-block edge
  // counts, never on where a block sits in memory, so any store layout
  // must reproduce them exactly.
  const Graph g = generate_rmat(20000, 100000, {}, 15);
  const auto reqs = generate_requests(g, 200000, {}, 17);

  DynamicGraphStore hyve_store(g, hyve_options(16));
  DynamicGraphStore graphr_store(g, graphr_options(g));
  apply_requests(hyve_store, reqs);
  apply_requests(graphr_store, reqs);
  EXPECT_EQ(hyve_store.num_edges(), 100500u);
  EXPECT_EQ(hyve_store.overflow_chunks(), 868u);
  EXPECT_EQ(hyve_store.preprocess_count(), 1u);
  EXPECT_EQ(graphr_store.num_edges(), 100500u);
  // Every block the stream touches first gets its first chunk here: a
  // hashed directory reserves nothing for blocks it has not seen.
  EXPECT_EQ(graphr_store.overflow_chunks(), 86729u);
  EXPECT_EQ(graphr_store.preprocess_count(), 1u);
}

// ---------- exact store state ----------

// Order-sensitive digest of a snapshot (FNV-1a over the packed edges):
// it changes when the same edges come out in another order.
std::uint64_t ordered_digest(const Graph& g) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ g.num_vertices();
  for (const Edge& e : g.edges()) {
    h ^= (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// An R-MAT graph with its first 3,000 edges appended again, so the
// locator holds many duplicate keys and the stream deletes parallel
// edges: which copy a delete takes, and so which edge moves into the
// freed slot, depends on the locator's bucket order.
Graph parallel_edge_graph() {
  const Graph base = generate_rmat(4000, 20000, {}, 23);
  std::vector<Edge> edges = base.edges();
  edges.insert(edges.end(), base.edges().begin(), base.edges().begin() + 3000);
  return Graph(base.num_vertices(), std::move(edges));
}

struct PinnedState {
  std::uint64_t built;     // ordered_digest after the build
  std::uint64_t streamed;  // ... after the request stream
  std::uint64_t overflow_chunks;
  std::uint64_t preprocess_count;
};

// The stream adds about 1,500 vertices, past the 30% vertex slack, so it
// also runs one rebuild.
PinnedState observe(const Graph& g, const DynamicGraphOptions& options) {
  DynamicGraphStore store(g, options);
  PinnedState s{};
  s.built = ordered_digest(store.snapshot());
  apply_requests(store, generate_requests(g, 30000, {}, 29));
  s.streamed = ordered_digest(store.snapshot());
  s.overflow_chunks = store.overflow_chunks();
  s.preprocess_count = store.preprocess_count();
  return s;
}

// The arena's block order, the locator's buckets and the directory's
// block numbering all show in these values: a build that reorders any of
// them changes a digest.
TEST(DynamicGraph, HyveLayoutStateIsPinned) {
  const PinnedState s = observe(parallel_edge_graph(), hyve_options(16));
  EXPECT_EQ(s.built, 14038661489542043775u);
  EXPECT_EQ(s.streamed, 10436097306811089954u);
  EXPECT_EQ(s.overflow_chunks, 683u);
  EXPECT_EQ(s.preprocess_count, 1u);
}

TEST(DynamicGraph, GraphRLayoutStateIsPinned) {
  const Graph g = parallel_edge_graph();
  const PinnedState s = observe(g, graphr_options(g));
  EXPECT_EQ(s.built, 347765985476959385u);
  EXPECT_EQ(s.streamed, 6098539093479222554u);
  EXPECT_EQ(s.overflow_chunks, 11695u);
  EXPECT_EQ(s.preprocess_count, 1u);
}

bool apply_one(DynamicGraphStore& store, const DynamicRequest& req) {
  switch (req.type) {
    case DynamicRequestType::kAddEdge: return store.add_edge(req.edge);
    case DynamicRequestType::kDeleteEdge: return store.delete_edge(req.edge);
    case DynamicRequestType::kAddVertex: store.add_vertex(); return true;
    case DynamicRequestType::kDeleteVertex:
      return store.delete_vertex(req.vertex);
  }
  return false;
}

// apply_requests reads ahead of the request it applies; the store must
// still end exactly where one request at a time leaves it, also for
// streams shorter than the read-ahead.
TEST(Requests, ApplyMatchesOneRequestAtATime) {
  const Graph g = parallel_edge_graph();
  const auto reqs = generate_requests(g, 30000, {}, 31);
  for (const DynamicGraphOptions& options :
       {hyve_options(16), graphr_options(g)}) {
    for (const std::size_t n : {std::size_t{5}, reqs.size()}) {
      const std::span<const DynamicRequest> stream(reqs.data(), n);
      DynamicGraphStore bulk(g, options);
      DynamicGraphStore single(g, options);
      std::uint64_t accepted = 0;
      for (const DynamicRequest& req : stream)
        accepted += apply_one(single, req) ? 1 : 0;
      EXPECT_EQ(apply_requests(bulk, stream).requests_applied, accepted);
      EXPECT_EQ(bulk.snapshot().edges(), single.snapshot().edges());
      EXPECT_EQ(bulk.num_vertices(), single.num_vertices());
      EXPECT_EQ(bulk.overflow_chunks(), single.overflow_chunks());
      EXPECT_EQ(bulk.preprocess_count(), single.preprocess_count());
    }
  }
}

// ---------- request streams ----------

TEST(Requests, DeterministicGeneration) {
  const Graph g = small_graph();
  const auto a = generate_requests(g, 1000, {}, 5);
  const auto b = generate_requests(g, 1000, {}, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].edge, b[i].edge);
  }
}

TEST(Requests, MixProportionsRoughlyHonored) {
  const Graph g = small_graph();
  const auto reqs = generate_requests(g, 20000, {}, 9);
  std::map<DynamicRequestType, int> hist;
  for (const auto& r : reqs) ++hist[r.type];
  // 45/45/5/5 with sampling noise.
  EXPECT_NEAR(hist[DynamicRequestType::kAddEdge] / 20000.0, 0.45, 0.02);
  EXPECT_NEAR(hist[DynamicRequestType::kDeleteEdge] / 20000.0, 0.45, 0.02);
  EXPECT_NEAR(hist[DynamicRequestType::kAddVertex] / 20000.0, 0.05, 0.01);
  EXPECT_NEAR(hist[DynamicRequestType::kDeleteVertex] / 20000.0, 0.05, 0.01);
}

TEST(Requests, DeletionsTargetExistingEdges) {
  const Graph g = small_graph();
  const auto reqs = generate_requests(g, 5000, {}, 11);
  const auto edges = edge_multiset(g);
  for (const auto& r : reqs)
    if (r.type == DynamicRequestType::kDeleteEdge)
      EXPECT_EQ(edges.count({r.edge.src, r.edge.dst}), 1u);
}

TEST(Requests, ApplyCountsSuccesses) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  const auto reqs = generate_requests(g, 10000, {}, 13);
  const ThroughputResult result = apply_requests(store, reqs);
  EXPECT_GT(result.requests_applied, 9000u);
  EXPECT_LE(result.requests_applied, 10000u);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.millions_per_second(), 0.0);
}

TEST(Requests, HyveLayoutFasterThanGraphRLayout) {
  // Fig. 20's mechanism: the 8x8-granularity grid must go through a hash
  // directory and loses throughput.
  const Graph g = generate_rmat(20000, 100000, {}, 15);
  const auto reqs = generate_requests(g, 200000, {}, 17);

  DynamicGraphOptions hyve_opt = hyve_options(16);
  DynamicGraphOptions graphr_opt;
  graphr_opt.num_intervals = g.num_vertices() / 8;
  graphr_opt.hashed_block_directory = true;

  DynamicGraphStore hyve_store(g, hyve_opt);
  DynamicGraphStore graphr_store(g, graphr_opt);
  const double hyve_mps =
      apply_requests(hyve_store, reqs).millions_per_second();
  const double graphr_mps =
      apply_requests(graphr_store, reqs).millions_per_second();
  EXPECT_GT(hyve_mps, graphr_mps);
}

}  // namespace
}  // namespace hyve
