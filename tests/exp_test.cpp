// Sweep engine (src/exp): cache correctness, determinism across thread
// counts, order-stable sinks, and the RunReport JSON round-trip that
// guards every record the sink writes. Runs under TSan in CI via the
// "sweep-engine" ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algos/frontier.hpp"
#include "algos/gas.hpp"
#include "core/report_io.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hyve {
namespace {

void add_test_graphs(exp::GraphCache& cache) {
  cache.add("g1", [] { return generate_rmat(12000, 70000, {}, 101); });
  cache.add("g2", [] { return generate_erdos_renyi(12000, 70000, 103); });
}

exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram(),
                  HyveConfig::acc_dram()};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"g1", "g2"};
  return spec;
}

std::string sweep_output(const exp::SweepSpec& spec, int jobs,
                         exp::ResultSink::Format format) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  std::ostringstream os;
  exp::ResultSink sink(os, format);
  exp::SweepOptions options;
  options.jobs = jobs;
  engine.run(spec, options, &sink);
  return os.str();
}

TEST(SweepEngine, ParallelOutputIdenticalToSerial) {
  const exp::SweepSpec spec = small_spec();
  const std::string serial =
      sweep_output(spec, 1, exp::ResultSink::Format::kJsonl);
  const std::string parallel =
      sweep_output(spec, 8, exp::ResultSink::Format::kJsonl);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // One line per cell, in cell order.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial.begin(), serial.end(), '\n')),
            spec.size());
}

TEST(SweepEngine, ParallelCsvIdenticalToSerial) {
  const exp::SweepSpec spec = small_spec();
  EXPECT_EQ(sweep_output(spec, 1, exp::ResultSink::Format::kCsv),
            sweep_output(spec, 8, exp::ResultSink::Format::kCsv));
}

TEST(SweepEngine, CachedRunMatchesUncachedRun) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;

  std::vector<HyveConfig> configs = {HyveConfig::hyve_opt(),
                                     HyveConfig::hyve(),
                                     HyveConfig::acc_dram()};
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "frontier";
  configs.push_back(frontier);
  HyveConfig unbalanced = HyveConfig::hyve_opt();
  unbalanced.hash_balance = false;
  unbalanced.label = "unbalanced";
  configs.push_back(unbalanced);

  for (const HyveConfig& cfg : configs) {
    for (const Algorithm algo : {Algorithm::kBfs, Algorithm::kPageRank}) {
      const RunReport cached =
          exp::run_cached(graphs, partitions, functional, cfg, algo, "g1");
      const RunReport direct =
          HyveMachine(cfg).run(graphs.base("g1"), algo);
      EXPECT_EQ(report_to_json(cached), report_to_json(direct))
          << cfg.label << "/" << algorithm_name(algo);
    }
  }
}

TEST(SweepEngine, CachesBuildEachArtifactOnce) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);

  exp::SweepSpec spec = small_spec();
  exp::SweepOptions options;
  options.jobs = 4;
  engine.run(spec, options);

  // g1 and g2 only: every config hash-balances (one shared seed), and
  // the schedule builds apply the permutation themselves, so the base
  // graphs are the cache's only bytes.
  EXPECT_EQ(graphs.builds(), 2u);
  std::size_t base_bytes = 0;
  for (const std::string& key : spec.graphs)
    base_bytes +=
        sizeof(Graph) + graphs.base(key).edges().capacity() * sizeof(Edge);
  EXPECT_EQ(graphs.resident_bytes(), base_bytes);
  const std::size_t first = partitions.builds();
  EXPECT_GT(first, 0u);
  // All 12 cells share partitionings: at most one per (graph, config
  // family, value width), far fewer than the cell count.
  EXPECT_LT(first, spec.size());

  // A second identical sweep hits every cache.
  engine.run(spec, options);
  EXPECT_EQ(graphs.builds(), 2u);
  EXPECT_EQ(partitions.builds(), first);
}

TEST(SweepEngine, OnlyWeightedProgramsBuildAWeightColumn) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  const HyveConfig config = HyveConfig::hyve_opt();
  exp::SweepSpec spec;
  spec.configs = {config};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kCc, Algorithm::kPageRank};
  spec.graphs = {"g1", "g2"};
  engine.run(spec);

  std::vector<std::pair<std::string, Algorithm>> cells;
  for (const std::string& key : spec.graphs)
    for (const Algorithm algorithm : spec.algorithms)
      cells.emplace_back(key, algorithm);
  // Visits every cached schedule by re-acquiring each cell's the way
  // run_cached does (the base graph and the balance seed; hits only),
  // and counts those holding a weight column: anything beyond the
  // 8 B/edge of src/dst.
  const auto weighted_schedules = [&] {
    const std::size_t builds = partitions.builds();
    std::set<const Partitioning*> schedules;
    std::size_t weighted = 0;
    for (const auto& [key, algorithm] : cells) {
      const std::shared_ptr<const Graph> graph = graphs.acquire(key);
      const std::uint32_t p = HyveMachine(config).choose_num_intervals(
          *graph, make_program(algorithm)->vertex_value_bytes());
      const std::shared_ptr<const Partitioning> schedule = partitions.acquire(
          key, *graph, p, config.partitioner, config.hash_balance_seed);
      const EdgeColumns& columns = schedule->edge_columns();
      if (schedules.insert(schedule.get()).second &&
          columns.approx_bytes() > columns.size() * 2 * sizeof(VertexId))
        ++weighted;
    }
    EXPECT_EQ(partitions.builds(), builds);
    EXPECT_EQ(partitions.resident(), schedules.size());
    return weighted;
  };
  EXPECT_EQ(weighted_schedules(), 0u);

  spec.algorithms = {Algorithm::kSssp};
  spec.graphs = {"g1"};
  engine.run(spec);
  cells.emplace_back("g1", Algorithm::kSssp);
  EXPECT_EQ(weighted_schedules(), 1u);
}

// The retained reference path: the hashed_remap image from the graph
// cache, its schedule, then the two machine halves.
RunReport remapped_graph_run(exp::GraphCache& graphs,
                             exp::PartitionCache& partitions,
                             const HyveConfig& config, Algorithm algorithm,
                             const std::string& key) {
  const HyveMachine machine(config);
  const auto program = make_program(algorithm);
  const std::shared_ptr<const Graph> balanced =
      graphs.acquire_balanced(key, config.hash_balance_seed);
  const std::uint32_t p =
      machine.choose_num_intervals(*balanced, program->vertex_value_bytes());
  const std::shared_ptr<const Partitioning> schedule = partitions.acquire(
      exp::GraphCache::balanced_key(key, config.hash_balance_seed), *balanced,
      p, config.partitioner);
  const FunctionalOutcome outcome =
      machine.run_functional_phase(*balanced, *schedule, *program);
  return machine.run_with_functional(*balanced, *schedule, *program, outcome);
}

TEST(FusedRemap, RunsEqualTheRemappedGraphPath) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache fused_schedules;
  exp::PartitionCache remapped_schedules;
  exp::FunctionalCache functional;
  for (const char* strategy : {"interval", "hep:tau=2"}) {
    for (const bool frontier : {false, true}) {
      HyveConfig config = HyveConfig::hyve_opt();
      config.frontier_block_skipping = frontier;
      config.set_partitioner(*parse_partitioner(strategy));
      ASSERT_TRUE(config.hash_balance);
      for (const Algorithm algorithm : kAllAlgorithms) {
        SCOPED_TRACE(::testing::Message()
                     << strategy << (frontier ? " frontier " : " dense ")
                     << algorithm_name(algorithm));
        const std::string want = report_to_json(remapped_graph_run(
            graphs, remapped_schedules, config, algorithm, "g1"));
        EXPECT_EQ(report_to_json(HyveMachine(config).run(graphs.base("g1"),
                                                         algorithm)),
                  want);
        EXPECT_EQ(report_to_json(exp::run_cached(graphs, fused_schedules,
                                                 functional, config,
                                                 algorithm, "g1")),
                  want);
      }
    }
  }
}

TEST(PartitionCache, ConcurrentBalancedAcquiresShareOneBuild) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  const std::shared_ptr<const Graph> graph = graphs.acquire("g1");
  exp::PartitionCache partitions;
  const PartitionerSpec hep = *parse_partitioner("hep:tau=2");
  std::vector<const Partitioning*> got(8, nullptr);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t)
      pool.emplace_back([&, t] {
        got[t] = partitions.acquire("g1", *graph, 8, hep, 42).get();
      });
    for (std::thread& th : pool) th.join();
  }
  EXPECT_EQ(partitions.builds(), 1u);
  for (const Partitioning* p : got) EXPECT_EQ(p, got.front());
  // Filed under the balanced image's key, apart from the base schedule.
  EXPECT_EQ(partitions.acquire("g1", *graph, 8, hep, 42).get(), got.front());
  EXPECT_NE(partitions.acquire("g1", *graph, 8, hep).get(), got.front());
  EXPECT_EQ(partitions.builds(), 2u);
  EXPECT_EQ(graphs.builds(), 1u);
}

TEST(SweepEngine, GraphCacheBuildsOnceUnderConcurrency) {
  exp::GraphCache cache;
  std::atomic<int> builds{0};
  cache.add("shared", [&builds] {
    ++builds;
    return generate_rmat(2000, 8000, {}, 7);
  });
  std::vector<std::thread> pool;
  for (int i = 0; i < 8; ++i)
    pool.emplace_back([&cache] {
      for (int j = 0; j < 4; ++j) {
        const Graph& g = cache.base("shared");
        EXPECT_EQ(g.num_vertices(), 2000u);
        cache.acquire_balanced("shared", 42);
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.builds(), 2u);  // base + one balanced image
}

TEST(SweepEngine, PropagatesCellFailures) {
  exp::GraphCache graphs;
  graphs.add("tiny", [] { return generate_rmat(4, 8, {}, 1); });
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt()};  // 8 PUs > 4 vertices
  spec.algorithms = {Algorithm::kBfs};
  spec.graphs = {"tiny"};
  EXPECT_THROW(engine.run(spec), InvariantError);
}

#if defined(__GLIBC__)
// The malloc arenas this process has, counted from malloc_info's report.
int malloc_arenas() {
  char* text = nullptr;
  std::size_t size = 0;
  FILE* out = open_memstream(&text, &size);
  malloc_info(0, out);
  std::fclose(out);
  int arenas = 0;
  for (const char* at = text; (at = std::strstr(at, "<heap nr=")) != nullptr;
       ++at)
    ++arenas;
  std::free(text);
  return arenas;
}

// What one worker frees must stay reusable by every other; the sweep's
// peak RSS depends on it (parallel_cells).
TEST(SweepEngine, WorkersShareOneMallocArena) {
  const int before = malloc_arenas();
  std::vector<std::vector<char>> kept(64);
  exp::parallel_cells(kept.size(), 4, [&kept](std::size_t i) {
    kept[i].assign(4096 + i, 'x');
  });
  EXPECT_EQ(malloc_arenas(), before);
}
#endif

TEST(SweepEngine, SinkAnnotatesGraphAndValidates) {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt()};
  spec.algorithms = {Algorithm::kBfs};
  spec.graphs = {"g1"};
  const std::string out =
      sweep_output(spec, 1, exp::ResultSink::Format::kJsonl);
  EXPECT_NE(out.find("\"acc+HyVE-opt@g1\""), std::string::npos);
  const RunReport parsed = run_report_from_json(out);
  EXPECT_EQ(parsed.config_label, "acc+HyVE-opt@g1");
  EXPECT_EQ(parsed.algorithm, "BFS");
}

TEST(SweepEngine, CsvHasHeaderAndOneRowPerCell) {
  const exp::SweepSpec spec = small_spec();
  const std::string out =
      sweep_output(spec, 2, exp::ResultSink::Format::kCsv);
  std::istringstream is(out);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line,
            "config,algorithm,graph,num_intervals,iterations,"
            "edges_traversed,exec_time_ns,energy_pj,mteps,mteps_per_watt");
  std::size_t rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, spec.size());
}

TEST(ReportRoundTrip, RecoversEveryField) {
  const Graph g = generate_rmat(10000, 60000, {}, 31337);
  for (const HyveConfig& cfg :
       {HyveConfig::hyve_opt(), HyveConfig::acc_dram()}) {
    const RunReport r = HyveMachine(cfg).run(g, Algorithm::kPageRank);
    const RunReport back = run_report_from_json(report_to_json(r));
    EXPECT_TRUE(reports_equivalent(back, r)) << cfg.label;
    EXPECT_EQ(back.config_label, r.config_label);
    EXPECT_EQ(back.stats.edge_bytes_read, r.stats.edge_bytes_read);
    EXPECT_EQ(back.stats.interval_writebacks, r.stats.interval_writebacks);
    EXPECT_EQ(back.bpg.bank_wakes, r.bpg.bank_wakes);
    EXPECT_NEAR(back.streaming_time_ns, r.streaming_time_ns,
                1e-6 * (r.streaming_time_ns + 1));
  }
}

TEST(ReportRoundTrip, RejectsMalformedInput) {
  EXPECT_THROW(run_report_from_json("not json"), std::runtime_error);
  EXPECT_THROW(run_report_from_json("{\"config\":\"x\"}"),
               std::runtime_error);
  EXPECT_THROW(run_report_from_json("{\"config\":\"x\""),
               std::runtime_error);
}

TEST(ReportRoundTrip, RejectsInconsistentDerivedFields) {
  const Graph g = generate_rmat(10000, 60000, {}, 31337);
  const RunReport r = HyveMachine(HyveConfig::hyve_opt()).run(g,
                                                              Algorithm::kBfs);
  std::string json = report_to_json(r);
  const std::string key = "\"energy_pj\":";
  const auto pos = json.find(key);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, key.size(), "\"energy_pj\":1e30,\"was_energy_pj\":");
  EXPECT_THROW(run_report_from_json(json), std::runtime_error);
}

TEST(ParseHelpers, AlgorithmRoundTrip) {
  for (const Algorithm a : kAllAlgorithms) {
    const auto parsed = parse_algorithm(algorithm_name(a));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_EQ(parse_algorithm("pr"), Algorithm::kPageRank);
  EXPECT_EQ(parse_algorithm("SPMV"), Algorithm::kSpmv);
  EXPECT_FALSE(parse_algorithm("dijkstra").has_value());
}

TEST(ParseHelpers, DatasetRoundTrip) {
  for (const DatasetId id : kAllDatasets) {
    const auto parsed = parse_dataset(dataset_name(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_EQ(parse_dataset("yt"), DatasetId::kYT);
  EXPECT_FALSE(parse_dataset("XX").has_value());
}

TEST(CacheEviction, PartitionCacheEvictsLruAndRebuilds) {
  exp::PartitionCache cache;
  cache.set_max_entries(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  const Graph g = generate_rmat(2000, 8000, {}, 7);

  const auto pa = cache.acquire("a", g, 4);
  const auto pb = cache.acquire("b", g, 4);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Third key evicts the LRU entry ("a") but pa stays valid: eviction
  // only drops the cache's reference.
  const auto pc = cache.acquire("c", g, 4);
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(pa->num_edges(), g.num_edges());

  // Hits do not rebuild; the evicted key rebuilds into a fresh object.
  EXPECT_EQ(cache.acquire("c", g, 4).get(), pc.get());
  EXPECT_EQ(cache.builds(), 3u);
  const auto pa2 = cache.acquire("a", g, 4);
  EXPECT_EQ(cache.builds(), 4u);
  EXPECT_NE(pa2.get(), pa.get());
  EXPECT_EQ(pa2->num_edges(), g.num_edges());
  EXPECT_LE(cache.resident(), 2u);
}

TEST(CacheEviction, PartitionCacheKeyReuseForDifferentGraphIsRejected) {
  exp::PartitionCache cache;
  const Graph g1 = generate_rmat(2000, 8000, {}, 7);
  const Graph g2 = generate_rmat(3000, 9000, {}, 8);
  cache.acquire("k", g1, 4);
  EXPECT_THROW(cache.acquire("k", g2, 4), InvariantError);
}

TEST(CacheEviction, PartitionCacheConcurrentAcquireUnderCap) {
  exp::PartitionCache cache;
  cache.set_max_entries(2);
  const Graph g = generate_rmat(1000, 5000, {}, 9);
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t)
    pool.emplace_back([&cache, &g] {
      for (int i = 0; i < 24; ++i) {
        // Six keys churning through a two-entry cache: every acquire
        // must hand back a complete partitioning even when another
        // worker concurrently evicts it.
        const auto p =
            cache.acquire("k" + std::to_string(i % 6), g, 4);
        EXPECT_EQ(p->num_edges(), g.num_edges());
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_LE(cache.resident(), 2u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GE(cache.builds(), 6u);
}

TEST(CacheEviction, GraphCacheResidentBytesCountOwnedGraphsOnly) {
  // resident_bytes() is the owned graphs' heap footprint. A pinned
  // graph costs nothing.
  exp::GraphCache cache;
  cache.add("pinned", generate_rmat(1000, 6000, {}, 6));
  cache.add("owned", [] { return generate_rmat(1000, 8000, {}, 7); });
  cache.acquire("pinned");
  EXPECT_EQ(cache.resident_bytes(), 0u);
  const auto owned = cache.acquire("owned");
  EXPECT_EQ(cache.resident_bytes(),
            sizeof(Graph) + owned->edges().capacity() * sizeof(Edge));
}

TEST(GraphCache, RejectsDuplicateAndUnknownKeys) {
  exp::GraphCache cache;
  cache.add("g", [] { return generate_rmat(100, 400, {}, 11); });
  EXPECT_THROW(cache.add("g", generate_rmat(100, 400, {}, 12)),
               InvariantError);
  // Dataset names are registered up front.
  EXPECT_THROW(cache.add("YT", [] { return generate_rmat(100, 400, {}, 13); }),
               InvariantError);
  EXPECT_THROW(cache.acquire("unknown"), InvariantError);
  EXPECT_EQ(cache.builds(), 0u);
}

TEST(CacheEviction, SweepUnderTightCachesStaysDeterministic) {
  exp::SweepSpec spec = small_spec();
  const auto run_with_budget = [&](int jobs) {
    exp::GraphCache graphs;
    add_test_graphs(graphs);
    exp::PartitionCache partitions;
    partitions.set_max_entries(1);
    exp::SweepEngine engine(graphs, partitions);
    std::ostringstream os;
    exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
    exp::SweepOptions options;
    options.jobs = jobs;
    engine.run(spec, options, &sink);
    return os.str();
  };
  const std::string serial = run_with_budget(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_with_budget(4));
  // And identical to the unbounded-cache sweep: eviction must never
  // change results, only rebuild counts.
  EXPECT_EQ(serial, sweep_output(spec, 2, exp::ResultSink::Format::kJsonl));
}

// Eight configs that differ only in memory-accounting knobs: same SRAM
// size and PU count (same P), same balance seed, same frontier mode, so
// every (algorithm, graph) pair shares one functional outcome.
std::vector<HyveConfig> memory_only_configs() {
  std::vector<HyveConfig> configs;
  const auto add = [&](const char* label, MemTech edge_tech, bool gating,
                       bool sharing, std::uint32_t edge_bytes) {
    HyveConfig cfg = HyveConfig::hyve_opt();
    cfg.label = label;
    cfg.edge_memory_tech = edge_tech;
    cfg.power_gating = gating;  // validate(): ReRAM edge memory only
    cfg.data_sharing = sharing;
    cfg.edge_bytes = edge_bytes;
    configs.push_back(cfg);
  };
  add("reram+pg+ds", MemTech::kReram, true, true, 8);
  add("reram+pg", MemTech::kReram, true, false, 8);
  add("reram+ds", MemTech::kReram, false, true, 8);
  add("reram", MemTech::kReram, false, false, 8);
  add("dram+ds", MemTech::kDram, false, true, 8);
  add("dram", MemTech::kDram, false, false, 8);
  add("reram+pg+ds+w", MemTech::kReram, true, true, 12);
  add("dram+ds+w", MemTech::kDram, false, true, 12);
  return configs;
}

// The records HyveMachine::run produces for every cell of `spec`, one
// uncached run per cell, written through the same sink the engine uses.
std::string direct_output(const exp::SweepSpec& spec) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  std::ostringstream os;
  exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
  for (const exp::SweepCell& cell : exp::expand(spec))
    sink.write(cell, HyveMachine(cell.config)
                         .run(graphs.base(cell.graph_key), cell.algorithm));
  return os.str();
}

// Runs `spec` on a fresh two-argument engine; returns its records and
// the memo's hit/build counts.
struct MemoisedSweep {
  std::string output;
  std::size_t hits = 0;
  std::size_t builds = 0;
};

MemoisedSweep memoised_sweep(const exp::SweepSpec& spec, int jobs) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  std::ostringstream os;
  exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
  exp::SweepOptions options;
  options.jobs = jobs;
  engine.run(spec, options, &sink);
  return {os.str(), engine.functional().hits(), engine.functional().builds()};
}

TEST(FunctionalCache, MemoizesAcrossMemoryConfigsWithIdenticalOutput) {
  exp::SweepSpec spec;
  spec.configs = memory_only_configs();
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"g1"};
  ASSERT_GE(spec.configs.size(), 8u);

  const std::string direct = direct_output(spec);
  EXPECT_FALSE(direct.empty());
  for (const int jobs : {1, 8}) {
    const MemoisedSweep sweep = memoised_sweep(spec, jobs);
    // Byte-identical to uncached runs, serial or parallel: the memoised
    // functional outcome feeds the same accounting walk.
    EXPECT_EQ(sweep.output, direct) << "jobs " << jobs;
    // One outcome per (algorithm, graph): 2 builds, 14 hits here.
    EXPECT_EQ(sweep.builds, spec.algorithms.size() * spec.graphs.size());
    EXPECT_EQ(sweep.hits, spec.size() - sweep.builds);
  }
}

TEST(FunctionalCache, EngineMemoisesFig16GridAcrossPartitioners) {
  // The Fig. 16 configs plus opt+frontier, crossed with two strategies:
  // memory technologies repeat functional keys, while the frontier mode,
  // the strategy and the SRAM-less configs' P split them.
  exp::SweepSpec spec;
  spec.configs = fig16_accelerator_configs();
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "acc+HyVE-opt+frontier";
  spec.configs.push_back(frontier);
  spec.partitioners = {PartitionerSpec{}, *parse_partitioner("hep:tau=2")};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"g1", "g2"};

  // Distinct functional keys, derived the way run_cached keys its memo:
  // the frontier mode splits BFS, but PageRank (which the frontier walk
  // cannot narrow) shares one entry across both modes.
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  std::set<std::tuple<std::string, Algorithm, std::string, std::uint32_t,
                      bool>>
      keys;
  for (const exp::SweepCell& cell : exp::expand(spec)) {
    const HyveConfig& cfg = cell.config;
    const std::string image =
        cfg.hash_balance
            ? exp::GraphCache::balanced_key(cell.graph_key,
                                            cfg.hash_balance_seed)
            : cell.graph_key;
    const auto program = make_program(cell.algorithm);
    const std::uint32_t p = HyveMachine(cfg).choose_num_intervals(
        graphs.base(cell.graph_key), program->vertex_value_bytes());
    keys.insert({image, cell.algorithm, cfg.partitioner.to_string(), p,
                 cfg.frontier_block_skipping &&
                     frontier_tracks_activity(*program)});
  }
  ASSERT_LT(keys.size(), spec.size());

  const std::string direct = direct_output(spec);
  for (const int jobs : {1, 4}) {
    const MemoisedSweep sweep = memoised_sweep(spec, jobs);
    EXPECT_EQ(sweep.output, direct) << "jobs " << jobs;
    EXPECT_EQ(sweep.builds, keys.size()) << "jobs " << jobs;
    EXPECT_EQ(sweep.hits, spec.size() - keys.size()) << "jobs " << jobs;
  }
}

TEST(FunctionalCache, FrontierAndDenseOutcomesGetDistinctEntries) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;

  HyveConfig dense = HyveConfig::hyve_opt();
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "frontier";
  exp::run_cached(graphs, partitions, functional, dense, Algorithm::kBfs,
                  "g1");
  exp::run_cached(graphs, partitions, functional, frontier, Algorithm::kBfs,
                  "g1");
  EXPECT_EQ(functional.builds(), 2u);
  EXPECT_EQ(functional.hits(), 0u);
  // Replays are hits, and reports stay equal to direct runs.
  const RunReport cached = exp::run_cached(graphs, partitions, functional,
                                           frontier, Algorithm::kBfs, "g1");
  EXPECT_EQ(functional.hits(), 1u);
  const RunReport direct =
      HyveMachine(frontier).run(graphs.base("g1"), Algorithm::kBfs);
  EXPECT_EQ(report_to_json(cached), report_to_json(direct));
}

// A frontier-mode machine whose choose_num_intervals() gives exactly `p`
// on `v` vertices of `value_bytes` each (v * value_bytes divisible by
// p): P = 1 takes one PU, the rest eight PUs with SRAM sections of
// v / p vertices. No remap, so the cached image is the base graph.
HyveConfig frontier_config_at(std::uint32_t p, VertexId v,
                              std::uint32_t value_bytes,
                              const PartitionerSpec& partitioner) {
  HyveConfig config = HyveConfig::hyve_opt();
  config.frontier_block_skipping = true;
  config.hash_balance = false;
  config.num_pus = p == 1 ? 1 : 8;
  config.sram_bytes_per_pu = 2 * std::uint64_t{v} * value_bytes / p;
  config.label = "frontier-P" + std::to_string(p);
  config.set_partitioner(partitioner);
  return config;
}

void expect_same_trace(const FrontierTrace& got, const FrontierTrace& want) {
  EXPECT_EQ(got.num_intervals, want.num_intervals);
  EXPECT_EQ(got.result.iterations, want.result.iterations);
  EXPECT_EQ(got.result.edges_traversed, want.result.edges_traversed);
  EXPECT_EQ(got.result.destination_writes, want.result.destination_writes);
  ASSERT_EQ(got.iteration_blocks.size(), want.iteration_blocks.size());
  for (std::size_t it = 0; it < want.iteration_blocks.size(); ++it) {
    const auto& lhs = got.iteration_blocks[it];
    const auto& rhs = want.iteration_blocks[it];
    ASSERT_EQ(lhs.size(), rhs.size()) << "iteration " << it;
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      EXPECT_EQ(lhs[i].block, rhs[i].block);
      EXPECT_EQ(lhs[i].edges, rhs[i].edges);
    }
  }
  EXPECT_EQ(got.approx_bytes(), want.approx_bytes());
}

TEST(FunctionalCache, InertProgramsShareTheDenseEntryAcrossFrontierModes) {
  // PageRank, SpMV and apply-phase GAS programs: the frontier walk
  // cannot narrow them, so frontier mode runs the dense passes and
  // rebuilds the walk's trace, which must equal run_frontier's.
  const auto decay = [] {
    GasProgram<float>::Spec spec;
    spec.name = "DECAY";
    spec.init = [](VertexId v, const Partitioning&) {
      return v % 3 == 0 ? 1.0f : 0.0f;
    };
    spec.scatter = [](const Edge&, const float& src,
                      const float& dst) -> std::optional<float> {
      if (src > dst) return src;
      return std::nullopt;
    };
    spec.apply = [](VertexId, const float& v) { return v * 0.5f; };
    spec.max_iterations = 4;
    return std::make_unique<GasProgram<float>>(std::move(spec));
  };
  const std::function<std::unique_ptr<VertexProgram>()> programs[] = {
      [] { return make_program(Algorithm::kPageRank); },
      [] { return make_program(Algorithm::kSpmv); }, decay};
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  const Graph& g = graphs.base("g1");
  for (const std::string& strategy : {"interval", "hep:tau=2"}) {
    const PartitionerSpec partitioner = *parse_partitioner(strategy);
    for (const std::uint32_t p : {1u, 8u, 16u}) {
      const Partitioning schedule =
          make_partitioner(partitioner)->partition(g, p);
      for (const auto& make : programs) {
        const auto program = make();
        SCOPED_TRACE(::testing::Message() << strategy << " P=" << p << " "
                                          << program->name());
        ASSERT_FALSE(frontier_tracks_activity(*program));
        const HyveMachine machine(frontier_config_at(
            p, g.num_vertices(), program->vertex_value_bytes(), partitioner));
        ASSERT_EQ(machine.choose_num_intervals(
                      g, program->vertex_value_bytes()),
                  p);
        const FunctionalOutcome outcome =
            machine.run_functional_phase(g, schedule, *program);
        const FrontierTrace walked = run_frontier(g, *make(), schedule);
        ASSERT_TRUE(outcome.frontier.has_value());
        expect_same_trace(*outcome.frontier, walked);
        EXPECT_EQ(outcome.result.iterations, walked.result.iterations);
        EXPECT_EQ(outcome.result.edges_traversed,
                  walked.result.edges_traversed);
        EXPECT_EQ(outcome.result.destination_writes,
                  walked.result.destination_writes);
      }
    }
  }

  // Through run_cached: a frontier cell reports exactly what accounting
  // over run_frontier's trace reports, and its dense twin hits the same
  // entry.
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;
  std::size_t cells = 0;
  for (const std::string& strategy : {"interval", "hep:tau=2"}) {
    const PartitionerSpec partitioner = *parse_partitioner(strategy);
    for (const std::uint32_t p : {1u, 8u, 16u}) {
      for (const Algorithm algorithm :
           {Algorithm::kPageRank, Algorithm::kSpmv}) {
        SCOPED_TRACE(::testing::Message() << strategy << " P=" << p << " "
                                          << algorithm_name(algorithm));
        const auto program = make_program(algorithm);
        const HyveConfig frontier = frontier_config_at(
            p, g.num_vertices(), program->vertex_value_bytes(), partitioner);
        HyveConfig dense = frontier;
        dense.frontier_block_skipping = false;
        dense.label += "-dense";
        const RunReport cached = exp::run_cached(
            graphs, partitions, functional, frontier, algorithm, "g1");
        exp::run_cached(graphs, partitions, functional, dense, algorithm,
                        "g1");
        cells += 2;
        const std::shared_ptr<const Partitioning> schedule =
            partitions.acquire("g1", g, p, partitioner);
        FunctionalOutcome walked;
        walked.num_intervals = p;
        walked.frontier = run_frontier(g, *make_program(algorithm), *schedule);
        walked.result = walked.frontier->result;
        const RunReport direct = HyveMachine(frontier).run_with_functional(
            g, *schedule, *program, walked);
        EXPECT_EQ(report_to_json(cached), report_to_json(direct));
      }
    }
  }
  EXPECT_EQ(functional.builds(), cells / 2);
  EXPECT_EQ(functional.hits(), cells / 2);
}

TEST(FunctionalCache, ConcurrentAcquireBuildsEachKeyOnce) {
  // Sweep-engine TSan coverage: workers race on two keys, so first
  // builds, waits on an in-flight build and hits interleave. Every
  // handed-out outcome must be complete, and each key builds once.
  exp::FunctionalCache cache;
  const Graph g = generate_rmat(2000, 8000, {}, 7);
  const Partitioning part(g, 8);
  std::atomic<int> builds{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        const exp::FunctionalKey key{"g", i % 4 == 0 ? "BFS" : "CC",
                                     "interval", 8, false};
        const auto outcome = cache.acquire(key, [&] {
          ++builds;
          const HyveMachine machine(HyveConfig::hyve_opt());
          const auto program = make_program(
              i % 4 == 0 ? Algorithm::kBfs : Algorithm::kCc);
          return machine.run_functional_phase(g, part, *program);
        });
        EXPECT_EQ(outcome->num_intervals, 8u);
        EXPECT_GT(outcome->result.iterations, 0u);
        EXPECT_GT(outcome->approx_bytes(), 0u);
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.hits(), 8u * 16u - 2u);
  EXPECT_GT(cache.resident(), 0u);
}

TEST(ParseHelpers, ConfigLabelRoundTrip) {
  for (const HyveConfig& cfg : fig16_accelerator_configs()) {
    const auto by_label = parse_config_label(cfg.label);
    ASSERT_TRUE(by_label.has_value()) << cfg.label;
    EXPECT_EQ(by_label->label, cfg.label);
    EXPECT_EQ(by_label->edge_memory_tech, cfg.edge_memory_tech);
    EXPECT_EQ(by_label->sram_bytes_per_pu, cfg.sram_bytes_per_pu);
  }
  EXPECT_EQ(parse_config_label("opt")->label, "acc+HyVE-opt");
  EXPECT_EQ(parse_config_label("sd")->label, "acc+SRAM+DRAM");
  EXPECT_FALSE(parse_config_label("bogus").has_value());
}

}  // namespace
}  // namespace hyve
