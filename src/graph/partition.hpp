// Interval-block partitioning (paper §2.1, Fig. 1).
//
// Vertices are split into P intervals I_0..I_{P-1}; edges are split into
// P^2 blocks where B[x][y] holds the edges whose source lies in I_x and
// destination in I_y. HyVE streams edges block by block so vertex
// accesses stay inside the two intervals currently resident in on-chip
// SRAM. The build's counting sort writes the edges block-major straight
// into src/dst columns (graph/edge_columns.hpp), and kernels receive
// each block as an EdgeBlockSoA view over them.
//
// The vertex→interval assignment is an explicit VertexMap, not the
// historical implicit `v / interval_width` contract: the interval-block
// strategy still produces equal-width index ranges, but degree-aware and
// streaming strategies (graph/partitioner.hpp) assign vertices freely, so
// every consumer must go through interval_of()/interval_population()
// instead of doing width arithmetic of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/edge_columns.hpp"
#include "graph/graph.hpp"

namespace hyve {

// Vertex→interval assignment. Two representations share one interface:
//   * uniform — the classic equal-width split, O(1) storage, contiguous
//     index ranges (interval_begin/end are meaningful);
//   * explicit — one interval id per vertex, produced by the pluggable
//     strategies; intervals are populations, not ranges.
// Populations always sum to the vertex count and every assignment is a
// valid interval id (checked at construction).
class VertexMap {
 public:
  // Equal-width split of [0, num_vertices) into num_intervals ranges
  // (the last may be short; trailing intervals may be empty when
  // num_intervals > num_vertices, which the dynamic store's slack grid
  // relies on).
  static VertexMap uniform(VertexId num_vertices, std::uint32_t num_intervals);

  // Explicit per-vertex assignment; assignment[v] is the interval of v.
  static VertexMap from_assignment(std::vector<std::uint32_t> assignment,
                                   std::uint32_t num_intervals);

  VertexMap() : VertexMap(uniform(0, 1)) {}

  VertexId num_vertices() const { return num_vertices_; }
  std::uint32_t num_intervals() const { return num_intervals_; }

  std::uint32_t interval_of(VertexId v) const {
    return assignment_.empty() ? static_cast<std::uint32_t>(v / width_)
                               : assignment_[v];
  }

  // Number of vertices assigned to interval i.
  VertexId population(std::uint32_t i) const;
  // Largest interval population (0 for an empty graph).
  VertexId max_population() const;

  // Whether every interval is a contiguous index range in ascending
  // order (always true for uniform maps; an explicit map may happen to
  // be contiguous too). Only then do interval_begin/end make sense.
  bool is_contiguous() const { return contiguous_; }
  VertexId interval_begin(std::uint32_t i) const;
  VertexId interval_end(std::uint32_t i) const;

  // Bytes of the map's arrays (capacity, not size).
  std::size_t resident_bytes() const;

 private:
  VertexMap(VertexId num_vertices, std::uint32_t num_intervals)
      : num_vertices_(num_vertices), num_intervals_(num_intervals) {}

  VertexId num_vertices_ = 0;
  std::uint32_t num_intervals_ = 1;
  VertexId width_ = 1;  // uniform maps only
  std::vector<std::uint32_t> assignment_;  // empty for uniform maps
  std::vector<VertexId> populations_;      // P entries
  std::vector<VertexId> begins_;           // P+1 entries when contiguous
  bool contiguous_ = true;
};

// CSR of the block grid by source vertex: for every vertex v, the sorted
// distinct destination intervals y with at least one edge v -> I_y.
// This is the dirty-propagation map of per-iteration pattern reuse
// (algos/frontier.hpp): when v changes, exactly the blocks
// B[interval_of(v)][y] for y in row(v) must be re-streamed next
// iteration. Rows are empty for vertices with no out-edges.
struct SourceBlockIndex {
  std::vector<std::uint64_t> offsets;    // V+1 prefix sums into intervals
  std::vector<std::uint32_t> intervals;  // distinct destination intervals

  std::span<const std::uint32_t> row(VertexId v) const {
    return {intervals.data() + offsets[v],
            intervals.data() + offsets[v + 1]};
  }
  std::size_t approx_bytes() const {
    return sizeof(SourceBlockIndex) +
           offsets.capacity() * sizeof(std::uint64_t) +
           intervals.capacity() * sizeof(std::uint32_t);
  }
};

class Partitioning {
 public:
  // Groups g's edges into P*P blocks with a counting sort over `map`
  // (which must cover exactly g's vertices). The sort is stable: each
  // block keeps its edges in g's order.
  Partitioning(const Graph& g, VertexMap map);

  // Convenience: the paper's equal-width interval-block split. P >= 1
  // and P <= V (unless V == 0).
  Partitioning(const Graph& g, std::uint32_t num_intervals);

  std::uint32_t num_intervals() const { return map_.num_intervals(); }
  VertexId num_vertices() const { return map_.num_vertices(); }
  std::uint64_t num_edges() const { return columns_->size(); }
  std::uint64_t num_blocks() const {
    return static_cast<std::uint64_t>(num_intervals()) * num_intervals();
  }

  // The vertex→interval assignment this partitioning was built over.
  const VertexMap& vertex_map() const { return map_; }

  std::uint32_t interval_of(VertexId v) const { return map_.interval_of(v); }
  // Number of vertices in interval i.
  VertexId interval_population(std::uint32_t i) const {
    return map_.population(i);
  }
  // Contiguous-range accessors; valid only when the map is contiguous
  // (the interval-block strategy — checked).
  VertexId interval_begin(std::uint32_t i) const {
    return map_.interval_begin(i);
  }
  VertexId interval_end(std::uint32_t i) const {
    return map_.interval_end(i);
  }

  // Edges of block B[x][y] (source interval x, destination interval y),
  // as a view over edge_columns().
  EdgeBlockSoA block(std::uint32_t x, std::uint32_t y) const;
  std::uint64_t block_edge_count(std::uint32_t x, std::uint32_t y) const;

  // Number of blocks that contain at least one edge.
  std::uint64_t non_empty_blocks() const;

  // Vertex replication over the block grid, counted once by the build:
  // `copies` is the number of distinct (vertex, block) endpoint
  // incidences, `touched` the number of vertices with at least one edge.
  // Their ratio is PartitionStats::replication_factor.
  struct Replication {
    std::uint64_t copies = 0;
    std::uint64_t touched = 0;
  };
  const Replication& replication() const { return replication_; }

  // Compatibility accessor, always empty: the build writes columns, not
  // Edge pairs. perfbench's bytes-per-edge metric still reads
  // grouped_edges().capacity() * sizeof(Edge) + lazy_bytes(), which is
  // therefore exactly the edge-image bytes; it goes once perfbench reads
  // resident_bytes().
  const std::vector<Edge>& grouped_edges() const;

  // All edges in block-major (x, then y) order, as the build wrote them;
  // shared by copies of this partitioning. Weight columns are built on
  // first use (EdgeColumns::weights), so only schedules that a weighted
  // program streams hold one.
  const EdgeColumns& edge_columns() const { return *columns_; }

  // Built on first use and shared by copies of this partitioning.
  // Thread-safe.
  const SourceBlockIndex& source_block_index() const;

  // Bytes of the edge images currently resident: the src/dst columns,
  // plus every weight column and the source-block index once built.
  // PartitionCache does not count them: its budget is an entry cap.
  std::size_t lazy_bytes() const;

  // Every byte this schedule holds: the block offsets, the vertex map
  // and lazy_bytes().
  std::size_t resident_bytes() const;

 private:
  // Partitioner::partition maps vertices inside the build's host span.
  friend class Partitioner;
  Partitioning() = default;

  // The counting sort and replication walk over map_, shared by every
  // constructor; the caller holds the partition.build host span.
  void build(const Graph& g);

  // The source-block index, shared across copies (the columns it
  // derives from are). Built once under `mu`; the atomic publishes the
  // finished index so later calls cost one acquire load.
  struct Lazy {
    std::mutex mu;
    std::shared_ptr<const SourceBlockIndex> index;
    std::atomic<const SourceBlockIndex*> index_ptr{nullptr};
  };

  std::uint64_t block_index(std::uint32_t x, std::uint32_t y) const {
    return static_cast<std::uint64_t>(x) * num_intervals() + y;
  }

  VertexMap map_;
  std::shared_ptr<const EdgeColumns> columns_;  // set by build()
  std::vector<std::uint64_t> offsets_;  // P*P + 1 prefix sums into columns_
  Replication replication_;
  std::shared_ptr<Lazy> lazy_ = std::make_shared<Lazy>();
};

}  // namespace hyve
