#include "graph/edge_columns.hpp"

#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {

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

const EdgeColumns::WeightColumn* EdgeColumns::find_weights(
    std::uint32_t max_weight) const {
  for (const WeightColumn* column =
           newest_weights_.load(std::memory_order_acquire);
       column != nullptr; column = column->next.get())
    if (column->max_weight == max_weight) return column;
  return nullptr;
}

const std::uint32_t* EdgeColumns::weights(std::uint32_t max_weight) const {
  if (const WeightColumn* column = find_weights(max_weight))
    return column->weight.data();
  HYVE_CHECK(max_weight > 0);
  const std::lock_guard<std::mutex> lock(weights_mu_);
  if (const WeightColumn* column = find_weights(max_weight))
    return column->weight.data();
  const obs::HostSpan host_span("edge_columns.weights");
  auto column = std::make_unique<WeightColumn>();
  column->max_weight = max_weight;
  column->weight.resize(src_.size());
  const VertexId* const src = src_.data();
  const VertexId* const dst = dst_.data();
  std::uint32_t* const weight = column->weight.data();
  const std::size_t n = src_.size();
  if ((max_weight & (max_weight - 1)) == 0) {
    // A power of two (SSSP's 64, SpMV's 1024) reduces the hash with a
    // mask instead of a divide: pure per-element arithmetic that the
    // compiler vectorizes, about half the cost.
    const std::uint64_t mask = max_weight - 1;
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i)
      weight[i] = static_cast<std::uint32_t>(
                      Graph::edge_weight_hash(Edge{src[i], dst[i]}) & mask) +
                  1;
  } else {
    for (std::size_t i = 0; i < n; ++i)
      weight[i] = Graph::edge_weight(Edge{src[i], dst[i]}, max_weight);
  }
  column->next = std::move(weights_);
  weights_ = std::move(column);
  newest_weights_.store(weights_.get(), std::memory_order_release);
  return weights_->weight.data();
}

std::size_t EdgeColumns::approx_bytes() const {
  std::size_t bytes = (src_.capacity() + dst_.capacity()) * sizeof(VertexId);
  for (const WeightColumn* column =
           newest_weights_.load(std::memory_order_acquire);
       column != nullptr; column = column->next.get())
    bytes += column->weight.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace hyve
