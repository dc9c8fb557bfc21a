// Structure-of-arrays edge blocks: the one edge layout the vertex
// programs' block kernels stream.
//
// Interleaved Edge{src, dst} pairs would drag destination ids through
// the cache when a kernel only gathers source values and vice versa;
// Dann et al. (PAPERS.md) find that layout pays exactly when it cuts
// the bytes a sequential edge stream moves. EdgeColumns holds an edge
// run as contiguous src[]/dst[] columns (8 bytes per edge), and
// EdgeBlockSoA hands kernels a borrowed window over them. The
// per-edge weight hash (the SplitMix64 avalanche that SSSP, SpMV and
// the widest-path program would otherwise recompute on every traversal
// of every edge) is a third column built on first use, so schedules
// that only BFS, CC and PageRank stream never hold it.
//
// Partitioning's counting sort writes the columns directly; it is their
// only producer. A whole-graph run streams the P = 1 schedule's one
// block, which holds the edges in input order (the sort is stable).
#pragma once

#include <atomic>
#include <cstdint>
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
  // The owner and the run's first edge in it, for weight_hash().
  const EdgeColumns* columns = nullptr;
  std::uint64_t offset = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Edge edge(std::size_t i) const { return Edge{src[i], dst[i]}; }

  std::span<const VertexId> sources() const { return {src, count}; }
  std::span<const VertexId> destinations() const { return {dst, count}; }

  // Graph::edge_weight_hash of each edge; feed through
  // Graph::edge_weight_from_hash for any max_weight. The first call on
  // an image builds its weight column (EdgeColumns::weight_hash), so
  // weighted kernels call this once per block, outside the edge loop.
  const std::uint64_t* weight_hash() const;
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

  // Graph::edge_weight_hash of every edge, in column order. Built on the
  // first call under the edge_columns.weight_hash host span; concurrent
  // first callers share one build, and later calls cost one acquire
  // load. Thread-safe.
  const std::uint64_t* weight_hash() const;
  bool has_weight_hash() const {
    return weight_built_.load(std::memory_order_acquire);
  }

  // Bytes of the columns: 8 per edge, 16 once the weight column exists.
  std::size_t approx_bytes() const;

 private:
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  // Written once under weight_mu_, then published by weight_built_.
  mutable std::mutex weight_mu_;
  mutable std::vector<std::uint64_t> weight_hash_;
  mutable std::atomic<bool> weight_built_{false};
};

inline const std::uint64_t* EdgeBlockSoA::weight_hash() const {
  return columns->weight_hash() + offset;
}

}  // namespace hyve
