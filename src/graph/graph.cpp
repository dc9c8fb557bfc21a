#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {

Graph::Graph(VertexId num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  for (const Edge& e : edges_) {
    HYVE_CHECK_MSG(e.src < num_vertices_ && e.dst < num_vertices_,
                   "edge " << e.src << "->" << e.dst
                           << " out of range for V=" << num_vertices_);
  }
}

const std::vector<std::uint32_t>& Graph::out_degrees() const {
  HYVE_CHECK_MSG(degrees_ != nullptr, "out_degrees() of a moved-from graph");
  std::call_once(degrees_->once, [this] {
    std::vector<std::uint32_t> deg(num_vertices_, 0);
    for (const Edge& e : edges_) ++deg[e.src];
    degrees_->out = std::move(deg);
  });
  return degrees_->out;
}

std::vector<std::uint32_t> Graph::in_degrees() const {
  std::vector<std::uint32_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.dst];
  return deg;
}

std::uint32_t Graph::edge_weight(const Edge& e, std::uint32_t max_weight) {
  HYVE_CHECK(max_weight > 0);
  return static_cast<std::uint32_t>(edge_weight_hash(e) % max_weight) + 1;
}

Graph Graph::hashed_remap(std::uint64_t seed) const {
  const obs::HostSpan host_span("graph.remap");
  std::vector<VertexId> perm(num_vertices_);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  Rng rng(seed);
  // Fisher–Yates with the deterministic session RNG.
  for (VertexId i = num_vertices_; i > 1; --i) {
    const auto j = static_cast<VertexId>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  std::vector<Edge> remapped;
  remapped.reserve(edges_.size());
  for (const Edge& e : edges_) remapped.push_back({perm[e.src], perm[e.dst]});
  return Graph(num_vertices_, std::move(remapped));
}

Csr Csr::from_graph(const Graph& g) {
  Csr csr;
  csr.row_offsets.assign(g.num_vertices() + 1, 0);
  for (const Edge& e : g.edges()) ++csr.row_offsets[e.src + 1];
  std::partial_sum(csr.row_offsets.begin(), csr.row_offsets.end(),
                   csr.row_offsets.begin());
  csr.neighbors.resize(g.num_edges());
  std::vector<std::uint64_t> cursor(csr.row_offsets.begin(),
                                    csr.row_offsets.end() - 1);
  for (const Edge& e : g.edges()) csr.neighbors[cursor[e.src]++] = e.dst;
  return csr;
}

Graph paper_example_graph() {
  // Fig. 1 of the paper: 8 vertices, 11 edges.
  return Graph(8, {{1, 0},
                   {0, 7},
                   {2, 3},
                   {2, 4},
                   {3, 4},
                   {3, 7},
                   {4, 1},
                   {4, 5},
                   {6, 2},
                   {6, 0},
                   {7, 1}});
}

}  // namespace hyve
