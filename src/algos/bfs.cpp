#include "algos/bfs.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hyve {

void BfsProgram::init(const Partitioning& schedule) {
  HYVE_CHECK(schedule.num_vertices() > 0);
  if (root_ == kAutoRoot) {
    const std::vector<std::uint32_t>& deg = schedule.out_degrees();
    root_ = static_cast<VertexId>(
        std::max_element(deg.begin(), deg.end()) - deg.begin());
  }
  HYVE_CHECK(root_ < schedule.num_vertices());
  dist_.assign(schedule.num_vertices(), kUnreached);
  dist_[root_] = 0;
  changed_ = false;
}

bool BfsProgram::process_edge(const Edge& e) {
  if (dist_[e.src] == kUnreached) return false;
  const std::uint32_t candidate = dist_[e.src] + 1;
  if (candidate < dist_[e.dst]) {
    dist_[e.dst] = candidate;
    changed_ = true;
    return true;
  }
  return false;
}

std::uint64_t BfsProgram::process_block(const EdgeBlockSoA& block) {
  std::uint32_t* const dist = dist_.data();
  const VertexId* const src = block.src;
  const VertexId* const dst = block.dst;
  std::uint64_t writes = 0;
  // Branchless saturating candidate: dist[src] + 1 unless unreached, in
  // which case the candidate saturates at kUnreached and the comparison
  // below rejects it — exactly the reference's early-out, without the
  // unpredictable branch. The relaxation itself must stay sequential
  // (later edges of the block legitimately read values written by
  // earlier ones — in-pass propagation), so no simd pragma here.
  for (std::size_t i = 0; i < block.count; ++i) {
    const std::uint32_t ds = dist[src[i]];
    const std::uint32_t candidate = ds == kUnreached ? kUnreached : ds + 1;
    if (candidate < dist[dst[i]]) {
      dist[dst[i]] = candidate;
      ++writes;
    }
  }
  changed_ |= writes > 0;
  return writes;
}

bool BfsProgram::end_iteration(std::uint32_t) {
  const bool more = changed_;
  changed_ = false;
  return more;
}

}  // namespace hyve
