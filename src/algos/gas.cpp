#include "algos/gas.hpp"

#include <algorithm>

namespace hyve {

GasProgram<std::uint32_t> make_reachability_program(VertexId root) {
  GasProgram<std::uint32_t>::Spec spec;
  spec.name = "REACH";
  spec.init = [root](VertexId v, const Graph&) -> std::uint32_t {
    return v == root ? 1u : 0u;
  };
  spec.scatter = [](const Edge&, const std::uint32_t& src,
                    const std::uint32_t& dst)
      -> std::optional<std::uint32_t> {
    if (src != 0 && dst == 0) return 1u;
    return std::nullopt;
  };
  spec.scatter_block = [](const EdgeBlockSoA& block, std::uint32_t* values,
                          std::vector<char>* changed) -> std::uint64_t {
    const VertexId* const src = block.src;
    const VertexId* const dst = block.dst;
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < block.count; ++i) {
      if (values[src[i]] != 0 && values[dst[i]] == 0) {
        values[dst[i]] = 1;
        ++writes;
        if (changed != nullptr) (*changed)[dst[i]] = 1;
      }
    }
    return writes;
  };
  return GasProgram<std::uint32_t>(std::move(spec));
}

GasProgram<std::uint32_t> make_widest_path_program(
    VertexId root, std::uint32_t max_capacity) {
  GasProgram<std::uint32_t>::Spec spec;
  spec.name = "WIDEST";
  spec.init = [root, max_capacity](VertexId v, const Graph&) {
    // The root has unbounded inflow; everything else starts unreachable.
    return v == root ? max_capacity + 1 : 0u;
  };
  spec.scatter = [max_capacity](const Edge& e, const std::uint32_t& src,
                                const std::uint32_t& dst)
      -> std::optional<std::uint32_t> {
    if (src == 0) return std::nullopt;
    const std::uint32_t through =
        std::min(src, Graph::edge_weight(e, max_capacity));
    if (through > dst) return through;
    return std::nullopt;
  };
  spec.scatter_block = [max_capacity](
                           const EdgeBlockSoA& block, std::uint32_t* values,
                           std::vector<char>* changed) -> std::uint64_t {
    const VertexId* const src = block.src;
    const VertexId* const dst = block.dst;
    const std::uint32_t* const weight = block.weights(max_capacity);
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < block.count; ++i) {
      const std::uint32_t s = values[src[i]];
      if (s == 0) continue;
      // The precomputed column replaces the per-edge SplitMix64 and
      // modulo the scatter callable pays through Graph::edge_weight.
      const std::uint32_t through = std::min(s, weight[i]);
      if (through > values[dst[i]]) {
        values[dst[i]] = through;
        ++writes;
        if (changed != nullptr) (*changed)[dst[i]] = 1;
      }
    }
    return writes;
  };
  return GasProgram<std::uint32_t>(std::move(spec));
}

}  // namespace hyve
