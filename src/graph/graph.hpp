// Core graph representation: a directed edge list with a fixed vertex count.
//
// HyVE is an edge-centric architecture (X-Stream model), so the edge list —
// not an adjacency structure — is the primary representation; CSR views and
// degree arrays are derived on demand where algorithms need them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace hyve {

class EdgeColumns;  // graph/edge_columns.hpp

using VertexId = std::uint32_t;

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;
  Graph(VertexId num_vertices, std::vector<Edge> edges);

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  // Per-vertex out-degree (used by PageRank's rank scaling).
  std::vector<std::uint32_t> out_degrees() const;
  std::vector<std::uint32_t> in_degrees() const;

  // Deterministic per-edge weight in [1, max_weight], derived by hashing
  // the endpoints; stands in for datasets without native weights (SSSP,
  // SpMV) exactly as the paper's unweighted SNAP graphs require.
  static std::uint32_t edge_weight(const Edge& e, std::uint32_t max_weight = 64);

  // edge_weight factored in two so SoA kernels can precompute the hash
  // once per edge and derive any max_weight from it:
  //   edge_weight(e, m) == edge_weight_from_hash(edge_weight_hash(e), m)
  // (pinned by test). The hash is a SplitMix64-style avalanche over the
  // packed endpoints.
  static std::uint64_t edge_weight_hash(const Edge& e) {
    std::uint64_t z = (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
  }
  static std::uint32_t edge_weight_from_hash(std::uint64_t hash,
                                             std::uint32_t max_weight) {
    return static_cast<std::uint32_t>(hash % max_weight) + 1;
  }

  // Remaps vertex ids through a deterministic pseudo-random permutation —
  // the hash-based partitioning of ForeGraph/GraphH (§4.3) that balances
  // interval populations before interval-block partitioning.
  Graph hashed_remap(std::uint64_t seed) const;

  // Structure-of-arrays image of edges() (edge_columns.hpp), built
  // lazily on first use: copies of this graph share one transpose. The
  // schedule-less run_functional path streams it; scheduled runs use
  // Partitioning::edge_columns() instead. Thread-safe.
  std::shared_ptr<const EdgeColumns> edge_columns_shared() const;

 private:
  struct ColumnsCell;

  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
  // Lazily created, shared across copies; never affects graph equality
  // or semantics (the graph itself stays immutable).
  mutable std::shared_ptr<ColumnsCell> columns_;
};

// Compressed sparse row view (by source vertex), built on demand.
struct Csr {
  std::vector<std::uint64_t> row_offsets;  // size V+1
  std::vector<VertexId> neighbors;         // size E

  static Csr from_graph(const Graph& g);
};

// The 8-vertex example graph of the paper's Fig. 1, used in tests to pin
// the partitioning semantics (e.g. edge 2->4 must land in block B[1][2]).
Graph paper_example_graph();

}  // namespace hyve
