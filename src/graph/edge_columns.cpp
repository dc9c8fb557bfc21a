#include "graph/edge_columns.hpp"

#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {

EdgeColumns::EdgeColumns(std::span<const Edge> edges) {
  src_.resize(edges.size());
  dst_.resize(edges.size());
  VertexId* const src = src_.data();
  VertexId* const dst = dst_.data();
  const Edge* const in = edges.data();
  const std::size_t n = edges.size();
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = in[i].src;
    dst[i] = in[i].dst;
  }
}

EdgeColumns::EdgeColumns(std::vector<VertexId> src, std::vector<VertexId> dst)
    : src_(std::move(src)), dst_(std::move(dst)) {
  HYVE_CHECK_MSG(src_.size() == dst_.size(),
                 "edge columns of " << src_.size() << " sources and "
                                    << dst_.size() << " destinations");
}

EdgeBlockSoA EdgeColumns::view(std::uint64_t offset, std::uint64_t count) const {
  HYVE_CHECK_MSG(offset + count <= src_.size(),
                 "SoA view [" << offset << ", " << offset + count
                              << ") out of range for " << src_.size()
                              << " edges");
  EdgeBlockSoA block;
  block.src = src_.data() + offset;
  block.dst = dst_.data() + offset;
  block.count = static_cast<std::size_t>(count);
  block.columns = this;
  block.offset = offset;
  return block;
}

const std::uint64_t* EdgeColumns::weight_hash() const {
  if (has_weight_hash()) return weight_hash_.data();
  const std::lock_guard<std::mutex> lock(weight_mu_);
  if (!weight_built_.load(std::memory_order_relaxed)) {
    const obs::HostSpan host_span("edge_columns.weight_hash");
    weight_hash_.resize(src_.size());
    const VertexId* const src = src_.data();
    const VertexId* const dst = dst_.data();
    std::uint64_t* const hash = weight_hash_.data();
    const std::size_t n = src_.size();
    // Pure per-element arithmetic: the compiler vectorizes it outright.
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i)
      hash[i] = Graph::edge_weight_hash(Edge{src[i], dst[i]});
    weight_built_.store(true, std::memory_order_release);
  }
  return weight_hash_.data();
}

std::size_t EdgeColumns::approx_bytes() const {
  std::size_t bytes = (src_.capacity() + dst_.capacity()) * sizeof(VertexId);
  if (has_weight_hash())
    bytes += weight_hash_.capacity() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace hyve
