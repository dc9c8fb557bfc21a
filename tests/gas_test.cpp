#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "algos/bfs.hpp"
#include "algos/gas.hpp"
#include "algos/runner.hpp"
#include "core/machine.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

Graph test_graph() { return generate_rmat(5000, 30000, {}, 999); }

TEST(Gas, RejectsMissingCallables) {
  GasProgram<int>::Spec spec;  // no init/scatter
  EXPECT_THROW(GasProgram<int>{std::move(spec)}, InvariantError);
}

TEST(Gas, ReachabilityMatchesBfsReachability) {
  const Graph g = test_graph();
  BfsProgram bfs(0);
  run_functional(g, bfs);
  auto reach = make_reachability_program(0);
  run_functional(g, reach);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(reach.values()[v] != 0,
              bfs.distances()[v] != BfsProgram::kUnreached)
        << "vertex " << v;
  }
}

TEST(Gas, WidestPathMatchesDijkstraVariant) {
  const Graph g = generate_rmat(500, 3000, {}, 1001);
  constexpr std::uint32_t kMaxCap = 64;
  auto widest = make_widest_path_program(0, kMaxCap);
  run_functional(g, widest);

  // Reference: max-bottleneck via Dijkstra on negated capacities.
  const Csr csr = Csr::from_graph(g);
  std::vector<std::uint32_t> best(g.num_vertices(), 0);
  best[0] = kMaxCap + 1;
  std::priority_queue<std::pair<std::uint32_t, VertexId>> pq;
  pq.push({best[0], 0});
  while (!pq.empty()) {
    const auto [cap, u] = pq.top();
    pq.pop();
    if (cap < best[u]) continue;
    for (auto i = csr.row_offsets[u]; i < csr.row_offsets[u + 1]; ++i) {
      const VertexId w = csr.neighbors[i];
      const std::uint32_t through =
          std::min(cap, Graph::edge_weight({u, w}, kMaxCap));
      if (through > best[w]) {
        best[w] = through;
        pq.push({through, w});
      }
    }
  }
  EXPECT_EQ(widest.values(), best);
}

TEST(Gas, ApplyPhaseMarksProgram) {
  GasProgram<float>::Spec spec;
  spec.name = "decay";
  spec.init = [](VertexId, const Partitioning&) { return 1.0f; };
  spec.scatter = [](const Edge&, const float&, const float&)
      -> std::optional<float> { return std::nullopt; };
  spec.apply = [](VertexId, const float& v) { return v * 0.5f; };
  spec.max_iterations = 3;
  GasProgram<float> prog(std::move(spec));
  EXPECT_TRUE(prog.has_apply_phase());
  const Graph g(10, {{0, 1}});
  const auto result = run_functional(g, prog);
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_FLOAT_EQ(prog.values()[0], 0.125f);
}

TEST(Gas, ValueBytesTrackTemplateParameter) {
  EXPECT_EQ(make_reachability_program(0).vertex_value_bytes(), 4u);
  GasProgram<double>::Spec spec;
  spec.init = [](VertexId, const Partitioning&) { return 0.0; };
  spec.scatter = [](const Edge&, const double&, const double&)
      -> std::optional<double> { return std::nullopt; };
  EXPECT_EQ(GasProgram<double>(std::move(spec)).vertex_value_bytes(), 8u);
}

TEST(Gas, RunsOnTheMachine) {
  // Custom GAS programs are first-class citizens of the public API.
  const Graph g = generate_rmat(20000, 100000, {}, 1002);
  auto reach = make_reachability_program(3);
  const RunReport r = HyveMachine(HyveConfig::hyve_opt()).run(g, reach);
  EXPECT_EQ(r.algorithm, "REACH");
  EXPECT_GT(r.mteps_per_watt(), 0.0);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Gas, MaxIterationsCapRespected) {
  // A scatter that always changes would run forever without the cap.
  GasProgram<std::uint32_t>::Spec spec;
  spec.name = "count";
  spec.init = [](VertexId, const Partitioning&) { return 0u; };
  spec.scatter = [](const Edge&, const std::uint32_t&,
                    const std::uint32_t& dst)
      -> std::optional<std::uint32_t> { return dst + 1; };
  spec.max_iterations = 7;
  GasProgram<std::uint32_t> prog(std::move(spec));
  const Graph g(4, {{0, 1}});
  EXPECT_EQ(run_functional(g, prog).iterations, 7u);
}

}  // namespace
}  // namespace hyve
