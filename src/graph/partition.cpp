#include "graph/partition.hpp"

#include <algorithm>
#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {

VertexMap VertexMap::uniform(VertexId num_vertices,
                             std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  VertexMap map(num_vertices, num_intervals);
  map.width_ =
      std::max<VertexId>(1, (num_vertices + num_intervals - 1) / num_intervals);
  map.populations_.assign(num_intervals, 0);
  map.begins_.assign(num_intervals + std::size_t{1}, num_vertices);
  for (std::uint32_t i = 0; i < num_intervals; ++i) {
    const auto begin = static_cast<VertexId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(i) * map.width_, num_vertices));
    const auto end = static_cast<VertexId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(i + 1) * map.width_, num_vertices));
    map.begins_[i] = begin;
    map.populations_[i] = end - begin;
  }
  map.contiguous_ = true;
  return map;
}

VertexMap VertexMap::from_assignment(std::vector<std::uint32_t> assignment,
                                     std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  VertexMap map(static_cast<VertexId>(assignment.size()), num_intervals);
  map.assignment_ = std::move(assignment);
  map.populations_.assign(num_intervals, 0);
  for (const std::uint32_t i : map.assignment_) {
    HYVE_CHECK_MSG(i < num_intervals,
                   "vertex assigned to interval " << i << " but the map has "
                                                  << num_intervals);
    ++map.populations_[i];
  }
  // Contiguity check: the assignment sequence must be non-decreasing and
  // visit intervals in order for begin/end ranges to be meaningful.
  map.contiguous_ = std::is_sorted(map.assignment_.begin(),
                                   map.assignment_.end());
  if (map.contiguous_) {
    map.begins_.assign(num_intervals + std::size_t{1}, 0);
    for (std::uint32_t i = 0; i < num_intervals; ++i)
      map.begins_[i + 1] = map.begins_[i] + map.populations_[i];
  }
  return map;
}

VertexId VertexMap::population(std::uint32_t i) const {
  HYVE_CHECK(i < num_intervals_);
  return populations_[i];
}

VertexId VertexMap::max_population() const {
  VertexId max = 0;
  for (const VertexId p : populations_) max = std::max(max, p);
  return max;
}

VertexId VertexMap::interval_begin(std::uint32_t i) const {
  HYVE_CHECK_MSG(contiguous_,
                 "interval_begin() on a non-contiguous vertex map");
  HYVE_CHECK(i < num_intervals_);
  return begins_[i];
}

VertexId VertexMap::interval_end(std::uint32_t i) const {
  HYVE_CHECK_MSG(contiguous_, "interval_end() on a non-contiguous vertex map");
  HYVE_CHECK(i < num_intervals_);
  return begins_[i] + populations_[i];
}

std::size_t VertexMap::resident_bytes() const {
  return assignment_.capacity() * sizeof(std::uint32_t) +
         (populations_.capacity() + begins_.capacity()) * sizeof(VertexId);
}

Partitioning::Partitioning(const Graph& g, VertexMap map,
                           std::span<const VertexId> perm)
    : map_(std::move(map)) {
  const obs::HostSpan host_span("partition.build");
  build(g, perm);
}

void Partitioning::build(const Graph& g, std::span<const VertexId> perm) {
  HYVE_CHECK_MSG(map_.num_vertices() == g.num_vertices(),
                 "vertex map covers " << map_.num_vertices()
                                      << " vertices but the graph has "
                                      << g.num_vertices());
  HYVE_CHECK_MSG(perm.empty() || perm.size() == g.num_vertices(),
                 "permutation of " << perm.size() << " ids for "
                                   << g.num_vertices() << " vertices");

  // Counting sort of edges by block index: one pass to count (and to
  // count out-degrees), one to place straight into the src/dst columns,
  // which are all that is ever resident. Both read the edges through
  // `perm`; the scatter recomputes each edge's block rather than keeping
  // one per edge from the count.
  const std::uint64_t blocks = num_blocks();
  offsets_.assign(blocks + 1, 0);
  std::vector<std::uint32_t> out_degrees(g.num_vertices(), 0);
  for_each_edge(g, perm, [&](const Edge& e) {
    ++offsets_[block_index(interval_of(e.src), interval_of(e.dst)) + 1];
    ++out_degrees[e.src];
  });
  for (std::uint64_t b = 0; b < blocks; ++b) offsets_[b + 1] += offsets_[b];
  out_degrees_ = std::make_shared<const std::vector<std::uint32_t>>(
      std::move(out_degrees));

  std::vector<VertexId> src(g.num_edges());
  std::vector<VertexId> dst(g.num_edges());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for_each_edge(g, perm, [&](const Edge& e) {
    const std::uint64_t at =
        cursor[block_index(interval_of(e.src), interval_of(e.dst))]++;
    src[at] = e.src;
    dst[at] = e.dst;
  });

  // Replication: one pass over the grouped (block-major) edges with a
  // per-vertex last-block stamp, done here once per schedule so that
  // compute_partition_stats() stays O(P^2) however many runs report it.
  // Branch-free, because which side of either test an endpoint lands on
  // is data-dependent and a branch would mispredict about half the time.
  const obs::HostSpan stats_span("partition.stats");
  std::vector<std::uint64_t> last_block(map_.num_vertices(), 0);
  std::uint64_t copies = 0;
  std::uint64_t touched = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint64_t stamp = b + 1;  // 0 = untouched
    for (std::uint64_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
      for (const VertexId endpoint : {src[i], dst[i]}) {
        const std::uint64_t last = last_block[endpoint];
        touched += last == 0;
        copies += last != stamp;
        last_block[endpoint] = stamp;
      }
    }
  }
  replication_ = {copies, touched};
  columns_ =
      std::make_shared<const EdgeColumns>(std::move(src), std::move(dst));
}

namespace {

VertexMap checked_uniform_map(const Graph& g, std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  HYVE_CHECK_MSG(num_intervals <= g.num_vertices() || g.num_vertices() == 0,
                 "more intervals (" << num_intervals << ") than vertices ("
                                    << g.num_vertices() << ")");
  return VertexMap::uniform(g.num_vertices(), num_intervals);
}

}  // namespace

Partitioning::Partitioning(const Graph& g, std::uint32_t num_intervals,
                           std::span<const VertexId> perm)
    : Partitioning(g, checked_uniform_map(g, num_intervals), perm) {}

std::uint64_t Partitioning::block_edge_count(std::uint32_t x,
                                             std::uint32_t y) const {
  HYVE_CHECK(x < num_intervals() && y < num_intervals());
  const std::uint64_t b = block_index(x, y);
  return offsets_[b + 1] - offsets_[b];
}

std::uint64_t Partitioning::non_empty_blocks() const {
  std::uint64_t count = 0;
  for (std::uint64_t b = 0; b < num_blocks(); ++b)
    count += (offsets_[b + 1] > offsets_[b]) ? 1 : 0;
  return count;
}

const std::vector<Edge>& Partitioning::grouped_edges() const {
  static const std::vector<Edge> none;
  return none;
}

EdgeBlockSoA Partitioning::block(std::uint32_t x, std::uint32_t y) const {
  HYVE_CHECK(x < num_intervals() && y < num_intervals());
  const std::uint64_t b = block_index(x, y);
  return columns_->view(offsets_[b], offsets_[b + 1] - offsets_[b]);
}

std::size_t Partitioning::lazy_bytes() const {
  return columns_->approx_bytes();
}

std::size_t Partitioning::resident_bytes() const {
  return offsets_.capacity() * sizeof(std::uint64_t) + map_.resident_bytes() +
         out_degrees_->capacity() * sizeof(std::uint32_t) + lazy_bytes();
}

}  // namespace hyve
