#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {

namespace {

// Block sizes, capacities and indices are 32-bit.
constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

}  // namespace

DynamicGraphStore::DynamicGraphStore(const Graph& initial,
                                     DynamicGraphOptions options)
    : options_(options), num_vertices_(initial.num_vertices()) {
  const obs::HostSpan host_span("dynamic.build");
  HYVE_CHECK(options_.num_intervals >= 1);
  HYVE_CHECK(options_.slack >= 0.0);
  vertex_capacity_ = static_cast<VertexId>(
      std::ceil(num_vertices_ * (1.0 + options_.slack))) + 1;
  vertex_valid_.assign(vertex_capacity_, false);
  for (VertexId v = 0; v < num_vertices_; ++v) vertex_valid_[v] = true;

  grid_ = options_.num_intervals;
  vmap_ = VertexMap::uniform(vertex_capacity_, grid_);

  // Initial placement with per-block slack reservation (one-shot
  // preprocessing; not counted in preprocess_count_), as a counting sort.
  // Pass 1 finds each edge's block and counts each block's edges.
  const std::vector<Edge>& edges = initial.edges();
  const auto edge_block_key = [&](std::size_t i) {
    return block_key(edges[i]);
  };
  std::vector<std::uint32_t> block_of(edges.size());
  if (options_.hashed_block_directory) {
    // The edges touch at most this many blocks.
    const auto blocks = static_cast<std::size_t>(std::min<std::uint64_t>(
        edges.size(), static_cast<std::uint64_t>(grid_) * grid_));
    directory_ = FlatTable(blocks);
    blocks_.reserve(blocks);
    // A new block key takes the directory's size, which is the number of
    // blocks before it: blocks are numbered in first-touch order, as
    // block_index() numbers the ones requests create.
    directory_.find_or_insert_all(edges.size(), edge_block_key,
                                  block_of.data());
    blocks_.resize(directory_.size());
  } else {
    const std::uint64_t blocks = static_cast<std::uint64_t>(grid_) * grid_;
    HYVE_CHECK_MSG(blocks <= kMax32,
                   grid_ << "^2 blocks cannot be indexed directly");
    blocks_.resize(blocks);
    for (std::size_t i = 0; i < edges.size(); ++i)
      block_of[i] = static_cast<std::uint32_t>(edge_block_key(i));
  }
  for (const std::uint32_t b : block_of) ++blocks_[b].size;

  // Pass 2 lays the blocks out back to back, each with its slack.
  const double slack = options_.slack;
  std::uint64_t placed = 0;
  std::uint64_t counted = 0;
  for (Block& b : blocks_) {
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(std::ceil(b.size * (1.0 + slack))) + 4;
    HYVE_CHECK(capacity <= kMax32);
    counted += b.size;
    b.offset = placed;
    b.capacity = static_cast<std::uint32_t>(capacity);
    b.size = 0;
    placed += capacity;
  }
  HYVE_CHECK_MSG(counted == edges.size(), "a block holds 2^32 edges or more");
  // Overflowing blocks move to the arena tail. Reserving address space for
  // the tail to grow by half keeps the arena from being copied (and held
  // twice) on the first move; reserved pages cost memory only once used.
  arena_.reserve(placed + placed / 2);
  arena_.resize(placed);

  // Pass 3 scatters the edges stably, in input order, and turns block_of
  // into each edge's slot within its block. Then the locator records
  // every slot, in input order too.
  locator_ = FlatTable(
      static_cast<std::size_t>(std::ceil(edges.size() * (1.0 + slack))));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    Block& b = blocks_[block_of[i]];
    arena_[b.offset + b.size] = edges[i];
    block_of[i] = b.size++;
  }
  locator_.insert_all(
      edges.size(), [&](std::size_t i) { return pack(edges[i]); },
      [&](std::size_t i) { return block_of[i]; });
  num_edges_ = edges.size();
}

std::uint32_t DynamicGraphStore::block_index(Edge e) {
  const std::uint64_t key = block_key(e);
  if (!options_.hashed_block_directory) return static_cast<std::uint32_t>(key);
  HYVE_CHECK(blocks_.size() < kMax32);
  const auto fresh = static_cast<std::uint32_t>(blocks_.size());
  const std::uint32_t index = directory_.find_or_insert(key, fresh);
  // A block the directory has not seen yet reserves nothing, so its first
  // edge chains its first chunk.
  if (index == fresh) blocks_.push_back({arena_.size(), 0, 0});
  return index;
}

void DynamicGraphStore::chain_overflow_chunk(Block& b) {
  const std::uint64_t capacity =
      b.capacity + std::max<std::uint64_t>(4, b.capacity / 4);
  HYVE_CHECK(capacity <= kMax32);
  if (b.offset + b.capacity == arena_.size()) {
    // The block ends the arena: the chunk extends it in place.
    arena_.resize(b.offset + capacity);
  } else {
    // Move the block to the arena tail; its old slots stay dead.
    const std::uint64_t offset = arena_.size();
    arena_.resize(offset + capacity);
    std::copy_n(arena_.begin() + b.offset, b.size, arena_.begin() + offset);
    b.offset = offset;
  }
  b.capacity = static_cast<std::uint32_t>(capacity);
  ++overflow_chunks_;
}

bool DynamicGraphStore::add_edge(Edge e) {
  if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
  Block& b = blocks_[block_index(e)];
  // Reserved space exhausted: chain an overflow chunk at the block end.
  if (b.size == b.capacity) chain_overflow_chunk(b);
  arena_[b.offset + b.size] = e;
  locator_.insert(pack(e), b.size++);
  ++num_edges_;
  return true;
}

bool DynamicGraphStore::delete_edge(Edge e) {
  if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
  const std::optional<std::uint32_t> slot = locator_.erase(pack(e));
  if (!slot) return false;
  Block& b = blocks_[block_index(e)];
  // §5: replace the edge with the block's last edge, free the tail slot.
  const std::uint32_t last = --b.size;
  if (*slot != last) {
    const Edge moved = arena_[b.offset + last];
    arena_[b.offset + *slot] = moved;
    std::uint32_t* moved_slot = locator_.find(pack(moved), last);
    HYVE_CHECK(moved_slot != nullptr);
    *moved_slot = *slot;
  }
  --num_edges_;
  return true;
}

VertexId DynamicGraphStore::add_vertex() {
  if (num_vertices_ + 1 > vertex_capacity_) {
    // Interval slack exhausted: vertices are accessed by index, so unlike
    // blocks they cannot chain — re-preprocess with fresh slack (§5).
    rebuild(num_vertices_ + 1);
  }
  const VertexId v = num_vertices_++;
  if (v >= vertex_valid_.size()) vertex_valid_.resize(num_vertices_, false);
  vertex_valid_[v] = true;
  return v;
}

bool DynamicGraphStore::delete_vertex(VertexId v) {
  if (v >= num_vertices_ || !vertex_valid_[v]) return false;
  vertex_valid_[v] = false;  // value set invalid; edges remain (§5)
  return true;
}

bool DynamicGraphStore::is_vertex_valid(VertexId v) const {
  return v < num_vertices_ && vertex_valid_[v];
}

void DynamicGraphStore::rebuild(VertexId new_num_vertices) {
  const obs::HostSpan host_span("dynamic.rebuild");
  ++preprocess_count_;
  Graph current = snapshot();
  DynamicGraphStore fresh(
      Graph(std::max(new_num_vertices, current.num_vertices()),
            current.edges()),
      options_);
  fresh.num_vertices_ = num_vertices_;  // caller increments afterwards
  fresh.preprocess_count_ = preprocess_count_;
  fresh.overflow_chunks_ = overflow_chunks_;
  for (VertexId v = 0; v < num_vertices_; ++v)
    fresh.vertex_valid_[v] = vertex_valid_[v];
  *this = std::move(fresh);
}

Graph DynamicGraphStore::snapshot() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (const Block& b : blocks_) {
    const auto first = arena_.begin() + static_cast<std::ptrdiff_t>(b.offset);
    edges.insert(edges.end(), first, first + b.size);
  }
  return Graph(num_vertices_, std::move(edges));
}

}  // namespace hyve
