// Functional execution of a vertex program over a graph.
//
// This is the *functional* half of the simulator: it runs the algorithm
// for real (actual ranks, distances, labels — verified against reference
// implementations in the tests) and reports the iteration/traversal
// counts that the architectural accounting in src/core multiplies with
// the technology models. Edges are visited block by block in a
// Partitioning's interval-block order, matching the hardware's schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "algos/vertex_program.hpp"
#include "graph/partition.hpp"

namespace hyve {

enum class Algorithm { kBfs, kCc, kPageRank, kSssp, kSpmv };

inline constexpr Algorithm kCoreAlgorithms[] = {
    Algorithm::kBfs, Algorithm::kCc, Algorithm::kPageRank};
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kBfs, Algorithm::kCc, Algorithm::kPageRank, Algorithm::kSssp,
    Algorithm::kSpmv};

std::unique_ptr<VertexProgram> make_program(Algorithm algorithm);
const char* algorithm_name(Algorithm algorithm);
// Inverse of algorithm_name(): case-insensitive, so it accepts both the
// canonical names ("PR", "SpMV") and the CLI short forms ("pr", "spmv").
// The single source of truth for string→Algorithm mapping.
std::optional<Algorithm> parse_algorithm(const std::string& name);

struct FunctionalResult {
  std::uint32_t iterations = 0;
  std::uint64_t edges_traversed = 0;    // E * iterations
  std::uint64_t destination_writes = 0; // process_edge() returned true
};

// Runs `program` to convergence (or its max_iterations cap), visiting
// `schedule`'s blocks in the destination-major scan order of Algorithm 2.
FunctionalResult run_functional(const Graph& graph, VertexProgram& program,
                                const Partitioning& schedule);

// A whole-graph run: over Partitioning(graph, 1), whose one block is the
// edge list in input order.
FunctionalResult run_functional(const Graph& graph, VertexProgram& program);

}  // namespace hyve
