#include "baselines/crossbar_compute.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "algos/pagerank.hpp"
#include "algos/runner.hpp"
#include "util/check.hpp"

namespace hyve {

QuantizedCrossbarBlock::QuantizedCrossbarBlock(
    const std::array<std::array<double, kDim>, kDim>& weights) {
  for (int s = 0; s < kDim; ++s) {
    for (int d = 0; d < kDim; ++d) {
      const double w = weights[s][d];
      HYVE_CHECK_MSG(w >= 0.0 && w <= 1.0,
                     "crossbar weight " << w << " outside [0, 1]");
      // 16-bit fixed point, bit-sliced into 4-bit conductance levels.
      const auto q = static_cast<std::uint32_t>(std::lround(w * 65535.0));
      for (int slice = 0; slice < kSlices; ++slice) {
        const auto level =
            static_cast<std::uint8_t>((q >> (slice * kCellBits)) & 0xF);
        cell_[slice][s][d] = level;
      }
      if (q != 0) cells_programmed_ += kSlices;
    }
  }
}

std::array<double, QuantizedCrossbarBlock::kDim> QuantizedCrossbarBlock::mvm(
    const std::array<double, kDim>& x, double x_scale) const {
  HYVE_CHECK(x_scale > 0.0);
  // 8-bit DACs drive the wordlines: quantise the input voltages.
  constexpr int kDacLevels = (1 << kDacBits) - 1;
  std::array<double, kDim> xq{};
  for (int s = 0; s < kDim; ++s) {
    const double clamped = std::clamp(x[s] / x_scale, 0.0, 1.0);
    xq[s] = std::lround(clamped * kDacLevels) /
            static_cast<double>(kDacLevels) * x_scale;
  }
  // Analog MAC per slice (bitline current summation), recombined with the
  // slice weights 16^k / 65535.
  std::array<double, kDim> y{};
  for (int slice = 0; slice < kSlices; ++slice) {
    const double slice_weight = std::pow(16.0, slice) / 65535.0;
    for (int d = 0; d < kDim; ++d) {
      double current = 0;
      for (int s = 0; s < kDim; ++s) current += cell_[slice][s][d] * xq[s];
      y[d] += current * slice_weight;
    }
  }
  return y;
}

CrossbarPagerankResult crossbar_pagerank(const Graph& graph,
                                         std::uint32_t iterations,
                                         double damping) {
  const VertexId v = graph.num_vertices();
  HYVE_CHECK(v > 0);
  const std::vector<std::uint32_t> out_degree = graph.out_degrees();

  // Group edges by 8x8 block and program one quantised crossbar each;
  // the programmed weight is the PR transition entry 1/outdeg(src).
  struct BlockKey {
    std::uint32_t bx, by;
    bool operator<(const BlockKey& o) const {
      return bx != o.bx ? bx < o.bx : by < o.by;
    }
  };
  std::map<BlockKey, std::array<std::array<double, 8>, 8>> block_weights;
  for (const Edge& e : graph.edges()) {
    const BlockKey key{e.src / 8, e.dst / 8};
    auto [it, inserted] = block_weights.try_emplace(key);
    if (inserted)
      for (auto& row : it->second) row.fill(0.0);
    it->second[e.src % 8][e.dst % 8] = 1.0 / out_degree[e.src];
  }

  CrossbarPagerankResult result;
  std::map<BlockKey, QuantizedCrossbarBlock> crossbars;
  for (const auto& [key, weights] : block_weights) {
    const auto [it, inserted] = crossbars.try_emplace(key, weights);
    result.cells_programmed += it->second.cells_programmed();
  }

  // Synchronous PageRank through block MVMs.
  std::vector<double> rank(v, 1.0 / v);
  std::vector<double> accum(v, 0.0);
  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    std::fill(accum.begin(), accum.end(), 0.0);
    const double x_scale =
        *std::max_element(rank.begin(), rank.end()) + 1e-300;
    for (const auto& [key, crossbar] : crossbars) {
      std::array<double, 8> x{};
      for (int s = 0; s < 8; ++s) {
        const VertexId src = key.bx * 8 + s;
        if (src < v) x[s] = rank[src];
      }
      const std::array<double, 8> y = crossbar.mvm(x, x_scale);
      for (int d = 0; d < 8; ++d) {
        const VertexId dst = key.by * 8 + d;
        if (dst < v) accum[dst] += y[d];
      }
      ++result.blocks_evaluated;
    }
    for (VertexId u = 0; u < v; ++u)
      rank[u] = (1.0 - damping) / v + damping * accum[u];
  }
  result.ranks = std::move(rank);

  // Reference float PageRank for the error report.
  PageRankProgram reference(iterations, damping);
  run_functional(graph, reference);
  double sum_err = 0;
  for (VertexId u = 0; u < v; ++u) {
    const double err = std::abs(result.ranks[u] - reference.ranks()[u]);
    result.max_abs_error = std::max(result.max_abs_error, err);
    sum_err += err;
  }
  result.mean_abs_error = sum_err / v;
  return result;
}

}  // namespace hyve
