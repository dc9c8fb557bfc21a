// Core graph representation: a directed edge list with a fixed vertex count.
//
// HyVE is an edge-centric architecture (X-Stream model), so the edge list —
// not an adjacency structure — is the primary representation; CSR views and
// degree arrays are derived on demand (runs read the out-degrees their
// schedule's build counted). Runs stream a Partitioning's columns;
// a whole-graph run uses P = 1. The §4.3 hash balancing renumbers the
// vertices through hash_permutation(), which the partition build applies
// as it reads the edges (for_each_edge), so no renumbered copy of the
// edge list is ever held.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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
  // Checks that every endpoint is below num_vertices.
  Graph(VertexId num_vertices, std::vector<Edge> edges);
  // For a loader that has already range-checked every endpoint (the
  // binary loader checks each chunk as it reads it): no second pass.
  struct Prechecked {};
  Graph(VertexId num_vertices, std::vector<Edge> edges, Prechecked)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  // Per-vertex degrees, counted afresh on every call (graph statistics,
  // the crossbar PageRank). Vertex programs read their schedule's
  // out-degree table instead (Partitioning::out_degrees).
  std::vector<std::uint32_t> out_degrees() const;
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

  // This graph with every vertex id v renumbered to
  // hash_permutation(V, seed)[v], edges in the same order. Runs never
  // build it: the partition build reads the edges through the
  // permutation instead. perfbench's traced reps and the equivalence
  // tests keep it as the reference the fused build must match.
  Graph hashed_remap(std::uint64_t seed) const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

// The deterministic pseudo-random vertex permutation of the hash-based
// partitioning of ForeGraph/GraphH (§4.3) that balances interval
// populations before interval-block partitioning: a Fisher–Yates shuffle
// of [0, num_vertices) driven by Rng(seed). Vertex v becomes perm[v].
// Timed under the graph.remap host span.
std::vector<VertexId> hash_permutation(VertexId num_vertices,
                                       std::uint64_t seed);

// Calls f(edge) for every edge of g in g's order, each endpoint read
// through `perm` when it is non-empty (the edge list of
// g.hashed_remap(seed) for perm = hash_permutation(V, seed), never
// materialised). With an empty `perm` the loop is a plain walk over
// g.edges().
template <typename F>
void for_each_edge(const Graph& g, std::span<const VertexId> perm, F&& f) {
  if (perm.empty()) {
    for (const Edge& e : g.edges()) f(e);
    return;
  }
  const VertexId* const to = perm.data();
  for (const Edge& e : g.edges()) f(Edge{to[e.src], to[e.dst]});
}

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
