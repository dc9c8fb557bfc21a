// Synthetic graph generators.
//
// The paper evaluates on five SNAP graphs that are not redistributable
// inside this offline reproduction; DESIGN.md documents the substitution.
// R-MAT (Chakrabarti et al.) reproduces the heavy-tailed degree and
// block-occupancy statistics (Table 1's N_avg) that drive every
// graph-shape-sensitive result; Erdős–Rényi provides a skew-free control
// used by tests and ablation benches.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace hyve {

struct RmatParams {
  // Quadrant probabilities; must be positive and sum to 1.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  // Self-loops are dropped (SNAP social graphs have none).
  bool allow_self_loops = false;
  // Duplicate edges are removed; generation oversamples to compensate.
  bool deduplicate = true;
};

// Largest R-MAT vertex count: the descent rounds it up to a power of two,
// which must still fit VertexId.
inline constexpr VertexId kMaxRmatVertices = VertexId{1} << 31;

// Generates an R-MAT graph with ~target_edges distinct edges over
// num_vertices vertices (rounded up internally to a power of two for the
// recursive quadrant descent, then rejected down to num_vertices).
// num_vertices must lie in [2, kMaxRmatVertices].
Graph generate_rmat(VertexId num_vertices, std::uint64_t target_edges,
                    const RmatParams& params, std::uint64_t seed);

// Uniform random directed graph (no self loops, deduplicated).
Graph generate_erdos_renyi(VertexId num_vertices, std::uint64_t target_edges,
                           std::uint64_t seed);

// Barabási–Albert preferential attachment: each new vertex attaches
// `edges_per_vertex` out-edges to targets drawn proportionally to their
// current degree. Produces power-law in-degrees — an alternative
// heavy-tail family to R-MAT for robustness studies.
Graph generate_barabasi_albert(VertexId num_vertices,
                               std::uint32_t edges_per_vertex,
                               std::uint64_t seed);

// Watts–Strogatz small world: a ring lattice of even degree `k` with each
// edge rewired with probability `beta`. Low-skew, high-locality control
// workload (the opposite regime from the social graphs).
Graph generate_watts_strogatz(VertexId num_vertices, std::uint32_t k,
                              double beta, std::uint64_t seed);

}  // namespace hyve
