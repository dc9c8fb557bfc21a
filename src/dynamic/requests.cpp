#include "dynamic/requests.hpp"

#include <chrono>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {

std::vector<DynamicRequest> generate_requests(const Graph& initial,
                                              std::uint64_t count,
                                              const DynamicRequestMix& mix,
                                              std::uint64_t seed) {
  HYVE_CHECK(initial.num_vertices() > 1);
  const double total =
      mix.add_edge + mix.delete_edge + mix.add_vertex + mix.delete_vertex;
  HYVE_CHECK_MSG(total > 0, "empty request mix");

  Rng rng(seed);
  std::vector<DynamicRequest> requests;
  requests.reserve(count);
  std::uint64_t delete_cursor =
      rng.next_below(std::max<std::uint64_t>(1, initial.num_edges()));

  for (std::uint64_t i = 0; i < count; ++i) {
    const double r = rng.next_double() * total;
    DynamicRequest req;
    if (r < mix.add_edge) {
      req.type = DynamicRequestType::kAddEdge;
      req.edge = {
          static_cast<VertexId>(rng.next_below(initial.num_vertices())),
          static_cast<VertexId>(rng.next_below(initial.num_vertices()))};
    } else if (r < mix.add_edge + mix.delete_edge &&
               initial.num_edges() > 0) {
      req.type = DynamicRequestType::kDeleteEdge;
      // Walk the edge list at a random stride so deletions rarely repeat.
      delete_cursor = (delete_cursor + 0x9e3779b9ULL) % initial.num_edges();
      req.edge = initial.edges()[delete_cursor];
    } else if (r < mix.add_edge + mix.delete_edge + mix.add_vertex) {
      req.type = DynamicRequestType::kAddVertex;
    } else {
      req.type = DynamicRequestType::kDeleteVertex;
      req.vertex =
          static_cast<VertexId>(rng.next_below(initial.num_vertices()));
    }
    requests.push_back(req);
  }
  return requests;
}

ThroughputResult apply_requests(DynamicGraphStore& store,
                                std::span<const DynamicRequest> requests) {
  const obs::HostSpan host_span("dynamic.apply");
  ThroughputResult result;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = requests.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Requests are independent, so the table probes of the edge request
    // a few places ahead can be in flight while this one runs.
    if (i + FlatTable::kPrefetchDistance < n) {
      const DynamicRequest& ahead = requests[i + FlatTable::kPrefetchDistance];
      if (ahead.type == DynamicRequestType::kAddEdge ||
          ahead.type == DynamicRequestType::kDeleteEdge)
        store.prefetch(ahead.edge);
    }
    const DynamicRequest& req = requests[i];
    switch (req.type) {
      case DynamicRequestType::kAddEdge:
        result.requests_applied += store.add_edge(req.edge) ? 1 : 0;
        break;
      case DynamicRequestType::kDeleteEdge:
        result.requests_applied += store.delete_edge(req.edge) ? 1 : 0;
        break;
      case DynamicRequestType::kAddVertex:
        store.add_vertex();
        ++result.requests_applied;
        break;
      case DynamicRequestType::kDeleteVertex:
        result.requests_applied += store.delete_vertex(req.vertex) ? 1 : 0;
        break;
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace hyve
