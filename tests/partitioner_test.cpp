#include "graph/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "algos/runner.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "bench/common.hpp"
#include "core/config.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "obs/host_profiler.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

std::vector<PartitionerSpec> all_strategies() {
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  PartitionerSpec hep_tight = hep;
  hep_tight.hep_tau = 1.0;
  PartitionerSpec sm;
  sm.strategy = PartitionStrategy::kSplitMerge;
  PartitionerSpec sm_coarse = sm;
  sm_coarse.splitmerge_chunks = 2;
  return {PartitionerSpec{}, hep, hep_tight, sm, sm_coarse};
}

// ---------- spec text form ----------

TEST(PartitionerSpec, CanonicalToString) {
  EXPECT_EQ(PartitionerSpec{}.to_string(), "interval");
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  EXPECT_EQ(hep.to_string(), "hep:tau=2");
  hep.hep_tau = 1.5;
  EXPECT_EQ(hep.to_string(), "hep:tau=1.5");
  PartitionerSpec sm;
  sm.strategy = PartitionStrategy::kSplitMerge;
  EXPECT_EQ(sm.to_string(), "splitmerge:chunks=8");
  sm.splitmerge_chunks = 16;
  EXPECT_EQ(sm.to_string(), "splitmerge:chunks=16");
}

TEST(PartitionerSpec, ParseAcceptsBareAndParameterisedForms) {
  const auto interval = parse_partitioner("interval");
  ASSERT_TRUE(interval.has_value());
  EXPECT_TRUE(interval->is_default());
  EXPECT_EQ(parse_partitioner("interval-block"), interval);

  const auto hep = parse_partitioner("hep");
  ASSERT_TRUE(hep.has_value());
  EXPECT_EQ(hep->strategy, PartitionStrategy::kHep);
  EXPECT_DOUBLE_EQ(hep->hep_tau, 2.0);

  const auto hep_tau = parse_partitioner("hep:tau=2.0");
  ASSERT_TRUE(hep_tau.has_value());
  EXPECT_EQ(*hep_tau, *hep);

  const auto sm = parse_partitioner("splitmerge:chunks=4");
  ASSERT_TRUE(sm.has_value());
  EXPECT_EQ(sm->strategy, PartitionStrategy::kSplitMerge);
  EXPECT_EQ(sm->splitmerge_chunks, 4u);
}

TEST(PartitionerSpec, ToStringParsesBackToEqualSpec) {
  std::vector<PartitionerSpec> specs = all_strategies();
  PartitionerSpec odd_tau;
  odd_tau.strategy = PartitionStrategy::kHep;
  odd_tau.hep_tau = 0.25;
  specs.push_back(odd_tau);
  for (const PartitionerSpec& spec : specs) {
    const auto parsed = parse_partitioner(spec.to_string());
    ASSERT_TRUE(parsed.has_value()) << spec.to_string();
    EXPECT_EQ(*parsed, spec) << spec.to_string();
  }
}

TEST(PartitionerSpec, ParseRejectsGarbage) {
  for (const char* bad :
       {"", "foo", "interval:x", "interval-block:2", "hep:", "hep:tau=",
        "hep:tau=0", "hep:tau=-1", "hep:tau=abc", "hep:tau=1.5x",
        "hep:chunks=2", "hep:tau=inf", "hep:tau=nan", "splitmerge:",
        "splitmerge:chunks=", "splitmerge:chunks=0", "splitmerge:chunks=-3",
        "splitmerge:chunks=abc", "splitmerge:tau=2", "HEP", "Interval"})
    EXPECT_FALSE(parse_partitioner(bad).has_value()) << bad;
}

TEST(PartitionerSpec, ValidateRejectsOutOfRangeParameters) {
  PartitionerSpec bad_tau;
  bad_tau.strategy = PartitionStrategy::kHep;
  bad_tau.hep_tau = 0.0;
  EXPECT_THROW(bad_tau.validate(), InvariantError);
  PartitionerSpec bad_chunks;
  bad_chunks.strategy = PartitionStrategy::kSplitMerge;
  bad_chunks.splitmerge_chunks = 0;
  EXPECT_THROW(bad_chunks.validate(), InvariantError);
}

TEST(PartitionerSpec, ConfigLabelAnnotationRoundTrips) {
  HyveConfig config = HyveConfig::hyve_opt();
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  config.set_partitioner(hep);
  EXPECT_EQ(config.label, "acc+HyVE-opt~hep:tau=2");

  const auto parsed = parse_config_label(config.label);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->partitioner, hep);
  EXPECT_EQ(parsed->label, config.label);
  EXPECT_EQ(parse_config_label("opt~hep:tau=2")->label, config.label);

  // Re-annotation replaces, and the default strips the suffix.
  PartitionerSpec sm;
  sm.strategy = PartitionStrategy::kSplitMerge;
  config.set_partitioner(sm);
  EXPECT_EQ(config.label, "acc+HyVE-opt~splitmerge:chunks=8");
  config.set_partitioner(PartitionerSpec{});
  EXPECT_EQ(config.label, "acc+HyVE-opt");

  EXPECT_FALSE(parse_config_label("opt~nonsense").has_value());
  EXPECT_FALSE(parse_config_label("nonsense~hep").has_value());
}

// ---------- death tests (exit 2 on CLI garbage) ----------

class PartitionerArgsDeathTest : public ::testing::Test {
 protected:
  PartitionerArgsDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

bench::Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return bench::parse_args(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), "bench_test",
                           "test bench");
}

TEST_F(PartitionerArgsDeathTest, SharedCommandLineRejectsBadPartitioner) {
  EXPECT_EXIT(parse({"--partitioner", "nonsense"}),
              ::testing::ExitedWithCode(2), "unknown partitioner nonsense");
  EXPECT_EXIT(parse({"--partitioner", "hep:tau=0"}),
              ::testing::ExitedWithCode(2), "unknown partitioner hep:tau=0");
  EXPECT_EXIT(parse({"--partitioner", "splitmerge:chunks=x"}),
              ::testing::ExitedWithCode(2),
              "unknown partitioner splitmerge:chunks=x");
}

TEST(PartitionerArgs, SharedCommandLineAcceptsStrategies) {
  parse({"--partitioner", "hep:tau=1.5"});
  EXPECT_EQ(bench::partitioner_spec().to_string(), "hep:tau=1.5");
  parse({"--partitioner", "interval"});
  EXPECT_TRUE(bench::partitioner_spec().is_default());
}

// ---------- structural properties, every strategy ----------

struct NamedGraph {
  const char* name;
  Graph graph;
  std::uint32_t p;
};

std::vector<NamedGraph> property_graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"paper-fig1", paper_example_graph(), 4});
  graphs.push_back({"rmat", generate_rmat(800, 5000, {}, 41), 8});
  graphs.push_back({"rmat-uneven-p", generate_rmat(997, 4000, {}, 43), 13});
  return graphs;
}

TEST(PartitionerProperty, EveryEdgeInExactlyOneBlock) {
  for (const NamedGraph& ng : property_graphs()) {
    for (const PartitionerSpec& spec : all_strategies()) {
      const Partitioning part =
          make_partitioner(spec)->partition(ng.graph, ng.p);
      std::uint64_t total = 0;
      for (std::uint32_t x = 0; x < ng.p; ++x)
        for (std::uint32_t y = 0; y < ng.p; ++y) {
          const EdgeBlockSoA block = part.block(x, y);
          for (std::size_t i = 0; i < block.size(); ++i) {
            EXPECT_EQ(part.interval_of(block.edge(i).src), x)
                << ng.name << " " << spec.to_string();
            EXPECT_EQ(part.interval_of(block.edge(i).dst), y)
                << ng.name << " " << spec.to_string();
          }
          total += part.block_edge_count(x, y);
        }
      EXPECT_EQ(total, ng.graph.num_edges())
          << ng.name << " " << spec.to_string();
    }
  }
}

TEST(PartitionerProperty, PopulationsSumToVAndRespectCapacity) {
  for (const NamedGraph& ng : property_graphs()) {
    const VertexId v = ng.graph.num_vertices();
    const VertexId cap = (v + ng.p - 1) / ng.p;
    for (const PartitionerSpec& spec : all_strategies()) {
      const VertexMap map =
          make_partitioner(spec)->map_vertices(ng.graph, ng.p);
      EXPECT_EQ(map.num_intervals(), ng.p);
      std::uint64_t pop = 0;
      for (std::uint32_t i = 0; i < ng.p; ++i) {
        pop += map.population(i);
        EXPECT_LE(map.population(i), cap)
            << ng.name << " " << spec.to_string() << " interval " << i;
      }
      EXPECT_EQ(pop, v) << ng.name << " " << spec.to_string();
      EXPECT_LE(map.max_population(), cap)
          << ng.name << " " << spec.to_string();
    }
  }
}

TEST(PartitionerProperty, MapVerticesIsDeterministic) {
  const Graph g = generate_rmat(600, 4000, {}, 47);
  for (const PartitionerSpec& spec : all_strategies()) {
    const auto partitioner = make_partitioner(spec);
    const VertexMap a = partitioner->map_vertices(g, 8);
    const VertexMap b = partitioner->map_vertices(g, 8);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(a.interval_of(v), b.interval_of(v)) << spec.to_string();
  }
}

// HEP exactly as first written: phase 2 scans every vertex's full
// undirected adjacency (2E entries) and skips the neighbours not placed
// yet. The shipped map builds only the placed neighbours' lists; this
// reference pins that the assignment did not move.
std::vector<std::uint32_t> hep_full_adjacency_reference(const Graph& g,
                                                        std::uint32_t p,
                                                        double tau) {
  constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};
  const VertexId v = g.num_vertices();
  std::vector<std::uint32_t> degree(v, 0);
  for (const Edge& e : g.edges()) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  const double threshold =
      tau * 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(v);
  std::vector<VertexId> high;
  for (VertexId u = 0; u < v; ++u)
    if (static_cast<double>(degree[u]) > threshold) high.push_back(u);
  std::sort(high.begin(), high.end(), [&](VertexId a, VertexId b) {
    return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
  });
  const VertexId cap = (v + p - 1) / p;
  std::vector<std::uint32_t> assignment(v, kUnassigned);
  std::vector<std::uint64_t> load(p, 0);
  std::vector<VertexId> population(p, 0);
  // Phase 1: least edge-loaded interval with headroom, lowest index on
  // ties (what the shipped min-heap of (load, index) pops).
  for (const VertexId u : high) {
    std::uint32_t chosen = kUnassigned;
    for (std::uint32_t i = 0; i < p; ++i)
      if (population[i] < cap &&
          (chosen == kUnassigned || load[i] < load[chosen]))
        chosen = i;
    assignment[u] = chosen;
    load[chosen] += degree[u];
    ++population[chosen];
  }
  // Phase 2 over the full adjacency.
  std::vector<std::vector<VertexId>> adjacency(v);
  for (const Edge& e : g.edges()) {
    adjacency[e.src].push_back(e.dst);
    adjacency[e.dst].push_back(e.src);
  }
  for (VertexId u = 0; u < v; ++u) {
    if (assignment[u] != kUnassigned) continue;
    std::vector<std::uint32_t> affinity(p, 0);
    for (const VertexId w : adjacency[u])
      if (assignment[w] != kUnassigned) ++affinity[assignment[w]];
    std::uint32_t best = kUnassigned;
    for (std::uint32_t i = 0; i < p; ++i) {
      if (population[i] >= cap) continue;
      if (best == kUnassigned || affinity[i] > affinity[best] ||
          (affinity[i] == affinity[best] && population[i] < population[best]))
        best = i;
    }
    assignment[u] = best;
    ++population[best];
  }
  return assignment;
}

TEST(PartitionerProperty, HepMatchesFullAdjacencyReference) {
  // R-MAT hubs land in phase 1 at every tau; the third graph keeps the
  // generator's self-loops and duplicate edges.
  RmatParams raw;
  raw.allow_self_loops = true;
  raw.deduplicate = false;
  const Graph graphs[] = {generate_rmat(3000, 24000, {}, 0x4E9),
                          generate_rmat(997, 9000, {}, 0x4EA),
                          generate_rmat(1500, 15000, raw, 0x4EB)};
  for (const Graph& g : graphs)
    for (const double tau : {0.5, 1.0, 2.0, 10.0})
      for (const std::uint32_t p : {2u, 7u, 16u, 64u}) {
        PartitionerSpec spec;
        spec.strategy = PartitionStrategy::kHep;
        spec.hep_tau = tau;
        const VertexMap map = make_partitioner(spec)->map_vertices(g, p);
        const std::vector<std::uint32_t> want =
            hep_full_adjacency_reference(g, p, tau);
        for (VertexId u = 0; u < g.num_vertices(); ++u)
          ASSERT_EQ(map.interval_of(u), want[u])
              << "V=" << g.num_vertices() << " tau=" << tau << " P=" << p
              << " vertex " << u;
      }
}

TEST(PartitionerProperty, RejectsMoreIntervalsThanVertices) {
  const Graph g(4, {});
  for (const PartitionerSpec& spec : all_strategies())
    EXPECT_THROW(make_partitioner(spec)->partition(g, 5), InvariantError)
        << spec.to_string();
}

// ---------- functional invariance across strategies ----------

TEST(PartitionerInvariance, FunctionalResultsAgreeAcrossStrategies) {
  for (const NamedGraph& ng : property_graphs()) {
    // Reference results over the interval-block schedule.
    const Partitioning ref_part(ng.graph, ng.p);
    BfsProgram ref_bfs(0);
    run_functional(ng.graph, ref_bfs, ref_part);
    CcProgram ref_cc;
    run_functional(ng.graph, ref_cc, ref_part);
    SsspProgram ref_sssp(0);
    run_functional(ng.graph, ref_sssp, ref_part);
    PageRankProgram ref_pr;
    run_functional(ng.graph, ref_pr, ref_part);
    SpmvProgram ref_spmv;
    run_functional(ng.graph, ref_spmv, ref_part);

    for (const PartitionerSpec& spec : all_strategies()) {
      const Partitioning part =
          make_partitioner(spec)->partition(ng.graph, ng.p);
      // Exact algorithms: final values are block-order independent.
      BfsProgram bfs(0);
      run_functional(ng.graph, bfs, part);
      EXPECT_EQ(bfs.distances(), ref_bfs.distances())
          << ng.name << " " << spec.to_string();
      CcProgram cc;
      run_functional(ng.graph, cc, part);
      EXPECT_EQ(cc.labels(), ref_cc.labels())
          << ng.name << " " << spec.to_string();
      SsspProgram sssp(0);
      run_functional(ng.graph, sssp, part);
      EXPECT_EQ(sssp.distances(), ref_sssp.distances())
          << ng.name << " " << spec.to_string();
      // FP accumulators: identical up to summation-order rounding.
      PageRankProgram pr;
      run_functional(ng.graph, pr, part);
      for (VertexId v = 0; v < ng.graph.num_vertices(); ++v)
        ASSERT_NEAR(pr.ranks()[v], ref_pr.ranks()[v], 1e-9)
            << ng.name << " " << spec.to_string() << " vertex " << v;
      SpmvProgram spmv;
      run_functional(ng.graph, spmv, part);
      for (VertexId v = 0; v < ng.graph.num_vertices(); ++v)
        ASSERT_NEAR(spmv.result()[v], ref_spmv.result()[v], 1e-9)
            << ng.name << " " << spec.to_string() << " vertex " << v;
    }
  }
}

// ---------- machine runs, stats and report round-trip ----------

TEST(PartitionerMachine, RunReportCarriesStrategyAndStats) {
  const Graph g = generate_rmat(3000, 20000, {}, 51);
  HyveConfig config = HyveConfig::hyve_opt();
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  config.set_partitioner(hep);
  const RunReport r = HyveMachine(config).run(g, Algorithm::kBfs);
  EXPECT_EQ(r.partitioner, "hep:tau=2");
  EXPECT_GT(r.partition.n_avg, 0.0);
  EXPECT_GE(r.partition.replication_factor, 1.0);
  EXPECT_GE(r.partition.interval_balance, 1.0 - 1e-9);
  EXPECT_GE(r.partition.remote_edge_fraction, 0.0);
  EXPECT_LE(r.partition.remote_edge_fraction, 1.0);
  EXPECT_GT(r.partition.bank_wake_fraction, 0.0);
  EXPECT_LE(r.partition.bank_wake_fraction, 1.0);

  // The JSON round-trip preserves the new fields bit-for-bit enough for
  // reports_equivalent (validated_report_json throws otherwise).
  const std::string json = validated_report_json(r);
  const RunReport parsed = run_report_from_json(json);
  EXPECT_EQ(parsed.partitioner, r.partitioner);
  EXPECT_TRUE(reports_equivalent(parsed, r));

  // Pre-partitioner records (no such fields) still parse, with defaults.
  const RunReport plain = HyveMachine(HyveConfig::hyve_opt()).run(
      g, Algorithm::kBfs);
  EXPECT_EQ(plain.partitioner, "interval");
}

TEST(PartitionerMachine, ComputePartitionStatsMatchesHandDerivation) {
  // Paper Fig. 1: 8 vertices, 11 edges. Equal-width P=4 puts the edges
  // into 9 non-empty blocks: B00=1, B03=1, B11=1, B12=2, B13=1, B20=1,
  // B22=1, B30=2, B31=1.
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  const PartitionStats stats = compute_partition_stats(part, 2);
  EXPECT_NEAR(stats.n_avg, 11.0 / 9.0, 1e-12);
  EXPECT_NEAR(stats.bank_wake_fraction, 9.0 / 16.0, 1e-12);
  EXPECT_NEAR(stats.interval_balance, 1.0, 1e-12);
  // Walking the blocks in block-major order, every vertex of Fig. 1 is
  // an endpoint somewhere (touched = 8) and the per-vertex distinct
  // block incidences sum to 21 copies.
  EXPECT_NEAR(stats.replication_factor, 21.0 / 8.0, 1e-12);
  // With 2 PUs, blocks where x % 2 != y % 2 cross PUs: B03 (1 edge),
  // B12 (2) and B30 (2) -> 5 of 11 edges.
  EXPECT_NEAR(stats.remote_edge_fraction, 5.0 / 11.0, 1e-12);
}

// The stats as a standalone O(E) walk over the grouped edges — the
// reference the build-time replication count must reproduce exactly.
PartitionStats reference_partition_stats(const Partitioning& schedule,
                                         int num_pus) {
  PartitionStats stats;
  const std::uint32_t p = schedule.num_intervals();
  const auto n = static_cast<std::uint32_t>(num_pus);
  const std::uint64_t e = schedule.num_edges();
  const VertexId v = schedule.num_vertices();
  const std::uint64_t non_empty = schedule.non_empty_blocks();
  stats.n_avg = non_empty == 0 ? 0.0
                               : static_cast<double>(e) /
                                     static_cast<double>(non_empty);
  stats.bank_wake_fraction = static_cast<double>(non_empty) /
                             static_cast<double>(schedule.num_blocks());
  std::vector<std::uint64_t> last_block(v, 0);
  std::uint64_t copies = 0;
  std::uint64_t touched = 0;
  std::uint64_t remote = 0;
  for (std::uint32_t x = 0; x < p; ++x) {
    for (std::uint32_t y = 0; y < p; ++y) {
      const EdgeBlockSoA edges = schedule.block(x, y);
      if (edges.empty()) continue;
      const std::uint64_t stamp = static_cast<std::uint64_t>(x) * p + y + 1;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        for (const VertexId endpoint : {edges.src[i], edges.dst[i]}) {
          if (last_block[endpoint] == 0) ++touched;
          if (last_block[endpoint] != stamp) {
            last_block[endpoint] = stamp;
            ++copies;
          }
        }
      }
      if (x % n != y % n) remote += edges.size();
    }
  }
  stats.replication_factor =
      touched == 0 ? 0.0
                   : static_cast<double>(copies) / static_cast<double>(touched);
  stats.remote_edge_fraction =
      e == 0 ? 0.0 : static_cast<double>(remote) / static_cast<double>(e);
  const double mean_pop = static_cast<double>(v) / static_cast<double>(p);
  stats.interval_balance =
      v == 0 ? 1.0
             : static_cast<double>(schedule.vertex_map().max_population()) /
                   mean_pop;
  return stats;
}

TEST(PartitionerMachine, BuildTimeStatsEqualTheEdgeWalkExactly) {
  for (const NamedGraph& ng : property_graphs()) {
    for (const char* name : {"interval", "hep:tau=2", "splitmerge:chunks=2"}) {
      const Partitioning part =
          make_partitioner(*parse_partitioner(name))->partition(ng.graph, ng.p);
      for (const int n : {1, 2, 3, 8}) {
        const PartitionStats got = compute_partition_stats(part, n);
        const PartitionStats want = reference_partition_stats(part, n);
        const std::string where =
            std::string(ng.name) + " " + name + " N=" + std::to_string(n);
        EXPECT_EQ(got.n_avg, want.n_avg) << where;
        EXPECT_EQ(got.replication_factor, want.replication_factor) << where;
        EXPECT_EQ(got.interval_balance, want.interval_balance) << where;
        EXPECT_EQ(got.remote_edge_fraction, want.remote_edge_fraction)
            << where;
        EXPECT_EQ(got.bank_wake_fraction, want.bank_wake_fraction) << where;
      }
    }
  }
}

// ---------- host profile of the build ----------

// Wraps a strategy with a mapping that takes at least `kDelay`, so the
// partition.build span provably covers map_vertices.
class SlowMappingPartitioner final : public Partitioner {
 public:
  static constexpr std::chrono::milliseconds kDelay{20};
  explicit SlowMappingPartitioner(const PartitionerSpec& spec)
      : inner_(make_partitioner(spec)) {}
  const PartitionerSpec& spec() const override { return inner_->spec(); }
  VertexMap map_vertices(const Graph& g, std::uint32_t p) const override {
    std::this_thread::sleep_for(kDelay);
    return inner_->map_vertices(g, p);
  }

 private:
  std::unique_ptr<Partitioner> inner_;
};

TEST(PartitionerProfile, OneBuildSpanCoversTheVertexMapping) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::host_profiler().start();
  obs::registry().reset_values();
  const Graph g = generate_rmat(2000, 12000, {}, 59);
  const PartitionerSpec hep = *parse_partitioner("hep:tau=2");
  make_partitioner(hep)->partition(g, 8);
  const obs::Histogram& build =
      obs::registry().histogram("host.span.partition.build");
  EXPECT_EQ(build.count(), 1u);
  EXPECT_EQ(obs::registry().histogram("host.span.partition.stats").count(),
            1u);
  obs::registry().reset_values();
  SlowMappingPartitioner(hep).partition(g, 8);
  EXPECT_EQ(build.count(), 1u);
  // Span samples are in microseconds.
  const auto delay_us = static_cast<std::uint64_t>(
      std::chrono::microseconds(SlowMappingPartitioner::kDelay).count());
  EXPECT_GE(build.sum(), delay_us);
  obs::host_profiler().stop();
  obs::set_enabled(was_enabled);
}

// ---------- cache keying per strategy ----------

TEST(PartitionerCache, StrategiesNeverCollideAndStatsAttribute) {
  exp::PartitionCache cache;
  const Graph g = generate_rmat(500, 2500, {}, 53);
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;

  const auto a = cache.acquire("g", g, 5);
  const auto b = cache.acquire("g", g, 5, hep);
  const auto a2 = cache.acquire("g", g, 5);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a.get(), a2.get());
  EXPECT_EQ(cache.builds(), 2u);

  const auto stats = cache.strategy_stats();
  ASSERT_TRUE(stats.count("interval"));
  ASSERT_TRUE(stats.count("hep:tau=2"));
  EXPECT_EQ(stats.at("interval").builds, 1u);
  EXPECT_EQ(stats.at("interval").hits, 1u);
  EXPECT_EQ(stats.at("hep:tau=2").builds, 1u);
  EXPECT_EQ(stats.at("hep:tau=2").hits, 0u);

  // The hep schedule really is the hep assignment, not equal-width.
  const VertexMap expect_hep = make_partitioner(hep)->map_vertices(g, 5);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(b->interval_of(v), expect_hep.interval_of(v));
}

// ---------- sweep axis: determinism for any --jobs ----------

std::string sweep_output(const exp::SweepSpec& spec, int jobs) {
  exp::GraphCache graphs;
  graphs.add("tiny", [] { return generate_rmat(400, 2400, {}, 59); });
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  std::ostringstream os;
  exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
  exp::SweepOptions options;
  options.jobs = jobs;
  engine.run(spec, options, &sink);
  return os.str();
}

TEST(PartitionerSweep, StrategyGridIsByteIdenticalForAnyJobs) {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram()};
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  PartitionerSpec sm;
  sm.strategy = PartitionStrategy::kSplitMerge;
  spec.partitioners = {PartitionerSpec{}, hep, sm};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"tiny"};
  ASSERT_EQ(exp::expand(spec).size(), 12u);

  const std::string serial = sweep_output(spec, 1);
  const std::string parallel = sweep_output(spec, 4);
  EXPECT_EQ(serial, parallel);

  // Every strategy's label annotation lands in the emitted records.
  EXPECT_NE(serial.find("~hep:tau=2"), std::string::npos);
  EXPECT_NE(serial.find("~splitmerge:chunks=8"), std::string::npos);
  // And the partition metrics ride along on every record.
  EXPECT_NE(serial.find("\"partitioner\":\"hep:tau=2\""), std::string::npos);
  EXPECT_NE(serial.find("\"n_avg\":"), std::string::npos);
}

}  // namespace
}  // namespace hyve
