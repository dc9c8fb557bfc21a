#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

// Sorts, deduplicates, and drops out-of-range / self-loop edges in place.
void canonicalize(std::vector<Edge>& edges, VertexId num_vertices,
                  bool allow_self_loops) {
  std::erase_if(edges, [&](const Edge& e) {
    if (e.src >= num_vertices || e.dst >= num_vertices) return true;
    return !allow_self_loops && e.src == e.dst;
  });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

Edge rmat_edge(VertexId scale_pow2, const RmatParams& p, Rng& rng) {
  VertexId src = 0;
  VertexId dst = 0;
  for (VertexId step = scale_pow2 >> 1; step > 0; step >>= 1) {
    const double r = rng.next_double();
    if (r < p.a) {
      // top-left quadrant: neither bit set
    } else if (r < p.a + p.b) {
      dst |= step;
    } else if (r < p.a + p.b + p.c) {
      src |= step;
    } else {
      src |= step;
      dst |= step;
    }
  }
  return {src, dst};
}

}  // namespace

Graph generate_rmat(VertexId num_vertices, std::uint64_t target_edges,
                    const RmatParams& params, std::uint64_t seed) {
  const obs::HostSpan host_span("rmat.generate");
  HYVE_CHECK(num_vertices > 1);
  HYVE_CHECK(num_vertices <= kMaxRmatVertices);
  const double sum = params.a + params.b + params.c + params.d;
  HYVE_CHECK_MSG(std::abs(sum - 1.0) < 1e-9, "R-MAT probabilities sum to "
                                                 << sum);
  const VertexId scale = std::bit_ceil(num_vertices);
  Rng rng(seed);

  std::vector<Edge> edges;
  edges.reserve(target_edges + target_edges / 4);
  // Oversample in rounds until the deduplicated set reaches the target;
  // R-MAT's duplicate rate grows with skew, so the loop adapts.
  std::uint64_t produced_target = target_edges;
  for (int round = 0; round < 8 && edges.size() < target_edges; ++round) {
    while (edges.size() < produced_target) {
      const Edge e = rmat_edge(scale, params, rng);
      if (e.src < num_vertices && e.dst < num_vertices) edges.push_back(e);
    }
    if (params.deduplicate) {
      canonicalize(edges, num_vertices, params.allow_self_loops);
      if (edges.size() >= target_edges) break;
      // Oversample the shortfall 2x: duplicates concentrate in the dense
      // quadrant, so the marginal duplicate rate exceeds the average one.
      produced_target = edges.size() + (target_edges - edges.size()) * 2;
    } else {
      std::erase_if(edges, [&](const Edge& e) {
        return !params.allow_self_loops && e.src == e.dst;
      });
      break;
    }
  }
  if (params.deduplicate && edges.size() > target_edges)
    edges.resize(target_edges);
  obs::host_profiler().count("rmat_edges", edges.size());
  return Graph(num_vertices, std::move(edges));
}

Graph generate_erdos_renyi(VertexId num_vertices, std::uint64_t target_edges,
                           std::uint64_t seed) {
  HYVE_CHECK(num_vertices > 1);
  const auto possible =
      static_cast<std::uint64_t>(num_vertices) * (num_vertices - 1);
  HYVE_CHECK_MSG(target_edges <= possible / 2,
                 "requested density too high for distinct directed edges");
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(target_edges + target_edges / 8);
  while (true) {
    while (edges.size() < target_edges + target_edges / 8 + 16) {
      const auto src = static_cast<VertexId>(rng.next_below(num_vertices));
      const auto dst = static_cast<VertexId>(rng.next_below(num_vertices));
      edges.push_back({src, dst});
    }
    canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
    if (edges.size() >= target_edges) break;
  }
  edges.resize(target_edges);
  return Graph(num_vertices, std::move(edges));
}

Graph generate_barabasi_albert(VertexId num_vertices,
                               std::uint32_t edges_per_vertex,
                               std::uint64_t seed) {
  HYVE_CHECK(edges_per_vertex >= 1);
  HYVE_CHECK(num_vertices > edges_per_vertex + 1);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * edges_per_vertex);
  // Repeated-endpoint list: sampling a uniform element is sampling
  // proportionally to degree (the standard BA implementation trick).
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(edges.capacity() * 2);

  // Seed clique over the first m+1 vertices.
  for (VertexId v = 0; v <= edges_per_vertex; ++v) {
    const VertexId u = (v + 1) % (edges_per_vertex + 1);
    edges.push_back({v, u});
    endpoint_pool.push_back(v);
    endpoint_pool.push_back(u);
  }
  for (VertexId v = edges_per_vertex + 1; v < num_vertices; ++v) {
    for (std::uint32_t j = 0; j < edges_per_vertex; ++j) {
      VertexId target = v;
      for (int attempt = 0; attempt < 16 && target == v; ++attempt)
        target = endpoint_pool[rng.next_below(endpoint_pool.size())];
      if (target == v) target = (v + 1) % v;  // degenerate fallback
      edges.push_back({v, target});
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
  return Graph(num_vertices, std::move(edges));
}

Graph generate_watts_strogatz(VertexId num_vertices, std::uint32_t k,
                              double beta, std::uint64_t seed) {
  HYVE_CHECK(k >= 2 && k % 2 == 0);
  HYVE_CHECK(num_vertices > k + 1);
  HYVE_CHECK(beta >= 0.0 && beta <= 1.0);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k / 2);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      VertexId target = static_cast<VertexId>(
          (static_cast<std::uint64_t>(v) + j) % num_vertices);
      if (rng.next_bool(beta)) {
        // Rewire to a uniform non-self target.
        do {
          target = static_cast<VertexId>(rng.next_below(num_vertices));
        } while (target == v);
      }
      edges.push_back({v, target});
    }
  }
  canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
  return Graph(num_vertices, std::move(edges));
}

}  // namespace hyve
