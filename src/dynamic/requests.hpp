// Dynamic-graph request streams and throughput measurement (§7.4.2).
//
// The paper issues tens of thousands of requests at a 45/45/5/5 mix of
// add-edge / delete-edge / add-vertex / delete-vertex and reports the
// sustained millions of edge changes per second on one thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/dynamic_graph.hpp"

namespace hyve {

enum class DynamicRequestType {
  kAddEdge,
  kDeleteEdge,
  kAddVertex,
  kDeleteVertex,
};

struct DynamicRequest {
  DynamicRequestType type = DynamicRequestType::kAddEdge;
  Edge edge;       // for edge requests
  VertexId vertex = 0;  // for delete-vertex
};

struct DynamicRequestMix {
  double add_edge = 0.45;
  double delete_edge = 0.45;
  double add_vertex = 0.05;
  double delete_vertex = 0.05;
};

// Deterministic request stream against `initial`. Insertions are fresh
// random pairs. Deletions take edges of `initial` by walking its edge
// list at a fixed stride from a random start; that walk can revisit an
// edge, so a delete may target an edge the stream already removed, and
// the store refuses it. Vertex deletions pick random vertices of
// `initial` and may repeat too. On YT, 33,398 of the 400,000 requests
// bench_fig20 generates are such refusals.
std::vector<DynamicRequest> generate_requests(const Graph& initial,
                                              std::uint64_t count,
                                              const DynamicRequestMix& mix,
                                              std::uint64_t seed);

struct ThroughputResult {
  double seconds = 0;
  std::uint64_t requests_applied = 0;
  double millions_per_second() const {
    return seconds <= 0 ? 0.0 : requests_applied / seconds / 1e6;
  }
};

// Applies the stream and measures wall-clock time.
ThroughputResult apply_requests(DynamicGraphStore& store,
                                std::span<const DynamicRequest> requests);

}  // namespace hyve
