// Dynamic-graph working flow (paper §5).
//
// HyVE keeps the interval-block layout mutable by reserving slack space
// (30% by default) in every block and interval:
//   * add edge    — O(1): append to the block's slack; when the slack is
//     exhausted an overflow chunk is chained from the block's end;
//   * delete edge — the edge is replaced by the block's last edge and the
//     tail slot is freed;
//   * add vertex  — appended into the interval slack; when interval slack
//     runs out a full re-preprocessing pass is triggered (vertex access
//     is not sequential, so chaining does not work there);
//   * delete vertex — the value is invalidated in place (e.g. -1 for PR).
//
// Layout. Every block is an {offset, size, capacity} run in one edge
// arena, laid out block-major by a counting sort with each block's slack
// reserved behind its edges. Chaining an overflow chunk grows the block
// in place when it ends the arena and otherwise moves it to the arena
// tail; the §5 accounting (chunk sizes, overflow_chunks()) does not
// depend on where a block lives.
//
// §5 calls the key enabler "address managements for graph data in the
// memory": the host keeps an edge locator, a flat open-addressing table
// from each edge to its slot within its block, so a delete goes straight
// to the edge's slot (one probe to find and erase it, one to retarget the
// block's moved last edge) instead of scanning the block.
//
// The same store at GraphR's 8x8-vertex granularity is the Fig. 20
// baseline: its (V/8)^2 block grid is too large to index directly, so a
// second flat table maps each block key to a block, created on first
// touch. That directory lookup is the only difference between the two
// layouts, and it is where the throughput gap comes from.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/flat_table.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace hyve {

struct DynamicGraphOptions {
  std::uint32_t num_intervals = 64;
  double slack = 0.30;  // reserved fraction per block/interval
  // Address blocks through a hashed directory instead of a dense grid
  // (GraphR's (V/8)^2 blocks cannot be directly indexed).
  bool hashed_block_directory = false;
};

class DynamicGraphStore {
 public:
  DynamicGraphStore(const Graph& initial, DynamicGraphOptions options);

  // O(1) amortised; returns false for out-of-range endpoints.
  bool add_edge(Edge e);
  // Removes one occurrence; returns false if absent. The locator finds
  // the edge's slot; removal itself is swap-with-last, O(1).
  bool delete_edge(Edge e);

  // Appends a vertex; triggers re-preprocessing when the interval slack
  // is exhausted. Returns the new vertex id.
  VertexId add_vertex();
  // Invalidates a vertex (its edges stay, matching §5's semantics).
  bool delete_vertex(VertexId v);
  bool is_vertex_valid(VertexId v) const;

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t preprocess_count() const { return preprocess_count_; }
  std::uint64_t overflow_chunks() const { return overflow_chunks_; }

  // Hints the locator bucket (and the hashed layout's directory bucket)
  // that add_edge(e) or delete_edge(e) will probe into cache, so a loop
  // over independent requests overlaps their misses. Always inlined, like
  // FlatTable::prefetch.
  [[gnu::always_inline]] void prefetch(Edge e) const {
    locator_.prefetch(pack(e));
    if (options_.hashed_block_directory) directory_.prefetch(block_key(e));
  }

  // Materialises the current edge set (valid vertices only are the
  // caller's concern; edges of invalidated vertices are included as §5
  // leaves them in place). Edges come block by block: block-major in the
  // direct-indexed layout, in block-creation order in the hashed one.
  Graph snapshot() const;

 private:
  struct Block {
    std::uint64_t offset = 0;    // first slot in arena_
    std::uint32_t size = 0;      // live edges, in [offset, offset + size)
    std::uint32_t capacity = 0;  // reserved slots before the next chunk
  };

  std::uint64_t block_key(Edge e) const {
    return static_cast<std::uint64_t>(vmap_.interval_of(e.src)) * grid_ +
           vmap_.interval_of(e.dst);
  }
  // The edge's block; the hashed layout creates it on first touch.
  std::uint32_t block_index(Edge e);
  void chain_overflow_chunk(Block& b);
  void rebuild(VertexId new_num_vertices);

  static std::uint64_t pack(Edge e) {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
  }

  DynamicGraphOptions options_;
  VertexId num_vertices_ = 0;
  VertexId vertex_capacity_ = 0;  // reserved vertex slots
  std::uint64_t num_edges_ = 0;
  // Uniform map over vertex_capacity_ (the slack grid may have more
  // intervals than live vertices; trailing intervals sit empty).
  VertexMap vmap_;
  std::uint32_t grid_ = 1;  // intervals per axis
  std::vector<Edge> arena_;    // every block's slots; dead runs after moves
  std::vector<Block> blocks_;  // HyVE: indexed by block key; GraphR: by
                               // creation order, through directory_
  FlatTable directory_;        // GraphR layout: block key -> block index
  // Host-side address management (§5): edge -> slot within its block.
  FlatTable locator_;
  std::vector<bool> vertex_valid_;
  std::uint64_t preprocess_count_ = 0;
  std::uint64_t overflow_chunks_ = 0;
};

}  // namespace hyve
