// Structure-of-arrays edge blocks: the one edge layout the vertex
// programs' block kernels stream.
//
// Interleaved Edge{src, dst} pairs would drag destination ids through
// the cache when a kernel only gathers source values and vice versa;
// Dann et al. (PAPERS.md) find that layout pays exactly when it cuts
// the bytes a sequential edge stream moves. EdgeColumns holds an edge
// run as contiguous src[]/dst[] columns (8 bytes per edge), and
// EdgeBlockSoA hands kernels a borrowed window over them. Edge weights
// (Graph::edge_weight, which SSSP, SpMV and the widest-path program
// would otherwise hash and divide on every traversal of every edge) are
// one uint32 column per distinct max_weight, each built on first use,
// so schedules that only BFS, CC and PageRank stream never hold one and
// a weighted kernel adds a loaded weight: 4 bytes per edge per column.
//
// Partitioning's counting sort writes the columns directly; it is their
// only producer. A whole-graph run streams the P = 1 schedule's one
// block, which holds the edges in input order (the sort is stable).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace hyve {

class EdgeColumns;

// Borrowed structure-of-arrays view over a contiguous edge run. Plain
// pointers (not spans) so kernels index all columns with one counter;
// the owning EdgeColumns must outlive the view.
struct EdgeBlockSoA {
  const VertexId* src = nullptr;
  const VertexId* dst = nullptr;
  std::size_t count = 0;
  // The owner and the run's first edge in it, for weights().
  const EdgeColumns* columns = nullptr;
  std::uint64_t offset = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Edge edge(std::size_t i) const { return Edge{src[i], dst[i]}; }

  std::span<const VertexId> sources() const { return {src, count}; }
  std::span<const VertexId> destinations() const { return {dst, count}; }

  // Graph::edge_weight(edge(i), max_weight) of each edge. The first
  // call for a max_weight builds that column over the whole image
  // (EdgeColumns::weights), so weighted kernels call this once per
  // block, outside the edge loop.
  const std::uint32_t* weights(std::uint32_t max_weight) const;
};

// Owning edge columns. A view over [offset, offset+count) holds exactly
// those edges of the run, so block offsets index the columns directly.
class EdgeColumns {
 public:
  EdgeColumns() = default;
  // Adopts columns built elsewhere (equal lengths, checked).
  EdgeColumns(std::vector<VertexId> src, std::vector<VertexId> dst);

  std::size_t size() const { return src_.size(); }
  bool empty() const { return src_.empty(); }

  // View over edges [offset, offset + count); bounds-checked.
  EdgeBlockSoA view(std::uint64_t offset, std::uint64_t count) const;
  EdgeBlockSoA all() const { return view(0, src_.size()); }

  // Graph::edge_weight(e, max_weight) of every edge, in column order
  // (max_weight > 0, checked). Each distinct max_weight gets its own
  // column, built on its first call under the edge_columns.weights host
  // span; concurrent first callers share one build, and later calls
  // cost one acquire load plus a walk over the built columns.
  // Thread-safe.
  const std::uint32_t* weights(std::uint32_t max_weight) const;

  // Bytes of the columns: 8 per edge, plus 4 per edge per weight column.
  std::size_t approx_bytes() const;

 private:
  // One built weight column. Columns form a newest-first list that only
  // grows, under weights_mu_; newest_weights_ publishes each new head,
  // so readers walk the list without the lock.
  struct WeightColumn {
    std::uint32_t max_weight = 0;
    std::vector<std::uint32_t> weight;
    std::unique_ptr<const WeightColumn> next;  // the column built before
  };

  const WeightColumn* find_weights(std::uint32_t max_weight) const;

  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  mutable std::mutex weights_mu_;
  mutable std::unique_ptr<const WeightColumn> weights_;
  mutable std::atomic<const WeightColumn*> newest_weights_{nullptr};
};

inline const std::uint32_t* EdgeBlockSoA::weights(
    std::uint32_t max_weight) const {
  return columns->weights(max_weight) + offset;
}

}  // namespace hyve
