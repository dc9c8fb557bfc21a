#include "graph/edge_columns.hpp"

#include "util/check.hpp"

namespace hyve {

EdgeColumns::EdgeColumns(std::span<const Edge> edges) {
  src_.resize(edges.size());
  dst_.resize(edges.size());
  weight_hash_.resize(edges.size());
  VertexId* const src = src_.data();
  VertexId* const dst = dst_.data();
  std::uint64_t* const hash = weight_hash_.data();
  const Edge* const in = edges.data();
  const std::size_t n = edges.size();
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = in[i].src;
    dst[i] = in[i].dst;
  }
  // The avalanche is pure per-element arithmetic — this is the one loop
  // of the transpose the compiler can vectorize outright.
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    hash[i] = Graph::edge_weight_hash(Edge{src[i], dst[i]});
}

EdgeBlockSoA EdgeColumns::view(std::uint64_t offset, std::uint64_t count) const {
  HYVE_CHECK_MSG(offset + count <= src_.size(),
                 "SoA view [" << offset << ", " << offset + count
                              << ") out of range for " << src_.size()
                              << " edges");
  EdgeBlockSoA block;
  block.src = src_.data() + offset;
  block.dst = dst_.data() + offset;
  block.weight_hash = weight_hash_.data() + offset;
  block.count = static_cast<std::size_t>(count);
  return block;
}

std::size_t EdgeColumns::approx_bytes() const {
  return sizeof(EdgeColumns) + src_.capacity() * sizeof(VertexId) +
         dst_.capacity() * sizeof(VertexId) +
         weight_hash_.capacity() * sizeof(std::uint64_t);
}

}  // namespace hyve
