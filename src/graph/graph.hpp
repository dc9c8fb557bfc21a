// Core graph representation: a directed edge list with a fixed vertex count.
//
// HyVE is an edge-centric architecture (X-Stream model), so the edge list —
// not an adjacency structure — is the primary representation; CSR views and
// degree arrays are derived on demand where algorithms need them (the
// out-degree table once per graph). Runs stream a Partitioning's columns;
// a whole-graph run uses P = 1.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hyve {

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

  // Per-vertex out-degree (PageRank's rank scaling, the BFS and SSSP
  // root choice). Counted on the first call, not at construction (a
  // load that never asks pays nothing), and kept: copies of this graph
  // share the one table and concurrent first calls share one count.
  // Valid while this graph or a copy of it lives. Thread-safe.
  const std::vector<std::uint32_t>& out_degrees() const;
  std::vector<std::uint32_t> in_degrees() const;

  // Deterministic per-edge weight in [1, max_weight],
  // edge_weight_hash(e) % max_weight + 1; stands in for datasets without
  // native weights (SSSP, SpMV) exactly as the paper's unweighted SNAP
  // graphs require. Block kernels read it from a precomputed column
  // (EdgeColumns::weights).
  static std::uint32_t edge_weight(const Edge& e, std::uint32_t max_weight = 64);

  // The hash under edge_weight: a SplitMix64-style avalanche over the
  // packed endpoints. Inline so the weight-column build vectorizes.
  static std::uint64_t edge_weight_hash(const Edge& e) {
    std::uint64_t z = (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
  }

  // Remaps vertex ids through a deterministic pseudo-random permutation —
  // the hash-based partitioning of ForeGraph/GraphH (§4.3) that balances
  // interval populations before interval-block partitioning.
  Graph hashed_remap(std::uint64_t seed) const;

 private:
  // The lazily counted out-degree table, shared by copies.
  struct Degrees {
    std::once_flag once;
    std::vector<std::uint32_t> out;
  };

  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::shared_ptr<Degrees> degrees_ = std::make_shared<Degrees>();
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
