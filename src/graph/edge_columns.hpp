// Structure-of-arrays edge blocks: the one edge layout the vertex
// programs' block kernels stream.
//
// Interleaved Edge{src, dst} pairs would drag destination ids through
// the cache when a kernel only gathers source values and vice versa;
// Dann et al. (PAPERS.md) find that layout pays exactly when it cuts
// the bytes a sequential edge stream moves. EdgeColumns transposes an
// edge run once into contiguous src[]/dst[] columns plus a precomputed
// per-edge weight hash (the expensive SplitMix64 avalanche that SSSP
// and SpMV otherwise recompute on every traversal of every edge), and
// EdgeBlockSoA hands kernels a borrowed window over those columns.
// Built once per graph image and cached next to it (Partitioning and
// Graph memoize their columns; GraphCache / PartitionCache sharing then
// amortises the transpose across sweep cells).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace hyve {

// Borrowed structure-of-arrays view over a contiguous edge run. Plain
// pointers (not spans) so kernels index all columns with one counter;
// the owning EdgeColumns must outlive the view.
struct EdgeBlockSoA {
  const VertexId* src = nullptr;
  const VertexId* dst = nullptr;
  // Graph::edge_weight_hash of each edge; feed through
  // Graph::edge_weight_from_hash for any max_weight.
  const std::uint64_t* weight_hash = nullptr;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Edge edge(std::size_t i) const { return Edge{src[i], dst[i]}; }

  std::span<const VertexId> sources() const { return {src, count}; }
  std::span<const VertexId> destinations() const { return {dst, count}; }
};

// Owning edge columns, transposed once from an edge span in the span's
// order (so a view over [offset, offset+count) holds exactly the edges
// of that subspan — block offsets carry over unchanged).
class EdgeColumns {
 public:
  EdgeColumns() = default;
  explicit EdgeColumns(std::span<const Edge> edges);

  std::size_t size() const { return src_.size(); }
  bool empty() const { return src_.empty(); }

  // View over edges [offset, offset + count); bounds-checked.
  EdgeBlockSoA view(std::uint64_t offset, std::uint64_t count) const;
  EdgeBlockSoA all() const { return view(0, src_.size()); }

  // Honest footprint for cache accounting (16 bytes per edge).
  std::size_t approx_bytes() const;

 private:
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<std::uint64_t> weight_hash_;
};

}  // namespace hyve
