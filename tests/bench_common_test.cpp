// bench::Runner layer (bench/common.hpp): the geomean guard, the shared
// command line every bench binary accepts, order-stable parallel cell
// execution, and the GridResults indexing used to render paper tables
// from SweepEngine output. Runs under TSan via the sweep-engine label.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/cpu.hpp"
#include "bench/common.hpp"
#include "core/report_io.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

TEST(Geomean, EmptyIsExplicitZero) {
  EXPECT_EQ(bench::geomean({}), 0.0);
}

TEST(Geomean, SingleAndMultiElement) {
  EXPECT_DOUBLE_EQ(bench::geomean({3.5}), 3.5);
  EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(bench::geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

// The headline bugfix: a zero or negative ratio used to silently produce
// NaN/-inf via std::log and poison every "measured average" line.
TEST(Geomean, RejectsZeroAndNegativeRatios) {
  EXPECT_THROW(bench::geomean({1.0, 0.0, 2.0}), InvariantError);
  EXPECT_THROW(bench::geomean({-1.5}), InvariantError);
  EXPECT_THROW(bench::geomean({2.0, -0.25}), InvariantError);
}

TEST(RunCells, ReturnsResultsInIndexOrderForAnyJobCount) {
  bench::Options opts;
  std::vector<std::size_t> serial, parallel;
  opts.jobs = 1;
  serial = bench::run_cells(64, opts, [](std::size_t i) { return i * i; });
  opts.jobs = 8;
  parallel = bench::run_cells(64, opts, [](std::size_t i) { return i * i; });
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
}

TEST(RunCells, PropagatesTheFirstCellFailure) {
  bench::Options opts;
  opts.jobs = 4;
  EXPECT_THROW(bench::run_cells(16, opts,
                                [](std::size_t i) -> int {
                                  if (i == 5)
                                    throw std::runtime_error("cell 5 broke");
                                  return 0;
                                }),
               std::runtime_error);
}

TEST(RunCells, ZeroJobsMeansHardwareConcurrency) {
  bench::Options opts;
  opts.jobs = 0;
  const auto out =
      bench::run_cells(8, opts, [](std::size_t i) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

// run_grid renders from the same engine results hyve_experiments emits;
// the (config, algorithm, graph) indexing must address the row-major
// SweepResult order exactly.
TEST(GridResults, IndexesEngineResultsByAxis) {
  const std::string key = "bench_common_test_g1";
  if (!bench::graph_cache().contains(key))
    bench::graph_cache().add(key,
                             [] { return generate_rmat(4000, 20000, {}, 5); });

  bench::Options opts;
  opts.jobs = 2;
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram()};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {key};
  const bench::GridResults grid = bench::run_grid(spec, opts);

  // A memo of its own, so each direct run computes its functional phase.
  exp::FunctionalCache functional;
  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      const RunReport& r = grid.at(c, a, 0);
      EXPECT_EQ(r.config_label, spec.configs[c].label);
      EXPECT_EQ(r.algorithm, algorithm_name(spec.algorithms[a]));
      const RunReport direct = exp::run_cached(
          bench::graph_cache(), bench::partition_cache(), functional,
          spec.configs[c], spec.algorithms[a], key);
      EXPECT_EQ(report_to_json(r), report_to_json(direct));
    }
  }
  EXPECT_THROW(grid.at(2, 0, 0), InvariantError);
  EXPECT_THROW(grid.at(0, 2, 0), InvariantError);
  EXPECT_THROW(grid.at(0, 0, 1), InvariantError);
}

// The CPU and GraphR baselines price one whole-graph pass per (dataset,
// algorithm): the second CPU kind hits the memo the first one filled,
// and the memoised pass over the P = 1 schedule equals the plain
// two-argument run_functional, so the reports equal the one-liners'.
TEST(WholeGraphFunctional, BaselinesShareOneMemoisedPass) {
  const DatasetId id = DatasetId::kYT;
  const Graph& graph = dataset_graph(id);
  const exp::FunctionalCache& memo = bench::sweep_engine().functional();
  for (const Algorithm algo : kAllAlgorithms) {
    SCOPED_TRACE(algorithm_name(algo));
    const std::size_t builds = memo.builds();
    const std::size_t hits = memo.hits();
    for (const CpuBaseline kind :
         {CpuBaseline::kNaive, CpuBaseline::kOptimized}) {
      const CpuReport priced =
          CpuModel(kind).run(algo, bench::whole_graph_functional(id, algo));
      const CpuReport direct = CpuModel(kind).run(graph, algo);
      EXPECT_EQ(priced.iterations, direct.iterations);
      EXPECT_EQ(priced.edges_traversed, direct.edges_traversed);
      EXPECT_EQ(priced.energy_pj, direct.energy_pj);
    }
    EXPECT_EQ(memo.builds(), builds + 1);
    EXPECT_EQ(memo.hits(), hits + 1);

    const FunctionalResult memoised = bench::whole_graph_functional(id, algo);
    const FunctionalResult direct = run_functional(graph, *make_program(algo));
    EXPECT_EQ(memoised.iterations, direct.iterations);
    EXPECT_EQ(memoised.edges_traversed, direct.edges_traversed);
    EXPECT_EQ(memoised.destination_writes, direct.destination_writes);
  }
}

// The --json report keeps one run per (config, algorithm, graph). A cell
// computed twice collapses to one run; two different cells under one key
// (here: sharing on and off, both labelled acc+HyVE-opt) would lose a
// run, so write() refuses them.
TEST(JsonReport, KeepsRepeatedCellsOnceAndRejectsCollidingLabels) {
  const std::string key = "bench_common_test_g1";
  if (!bench::graph_cache().contains(key))
    bench::graph_cache().add(key,
                             [] { return generate_rmat(4000, 20000, {}, 5); });
  HyveConfig unshared = HyveConfig::hyve_opt();
  unshared.data_sharing = false;
  exp::FunctionalCache functional;
  const auto run = [&](const HyveConfig& cfg, Algorithm algo) {
    return exp::run_cached(bench::graph_cache(), bench::partition_cache(),
                           functional, cfg, algo, key);
  };
  const RunReport bfs = run(HyveConfig::hyve_opt(), Algorithm::kBfs);
  const RunReport pr = run(HyveConfig::hyve_opt(), Algorithm::kPageRank);
  const RunReport unshared_bfs = run(unshared, Algorithm::kBfs);
  ASSERT_EQ(unshared_bfs.config_label, bfs.config_label);
  ASSERT_NE(report_to_json(unshared_bfs), report_to_json(bfs));

  bench::JsonCollector& collector = bench::json_collector();
  collector.enabled = true;
  bench::JsonReport report;
  report.bench = "bench_test";
  report.path = ::testing::TempDir() + "bench_common_test_report.json";
  report.started = std::chrono::steady_clock::now();
  for (const RunReport* r : {&bfs, &pr, &bfs}) bench::record_report(key, *r);
  report.write();
  EXPECT_EQ(read_bench_report_file(report.path).runs.size(), 2u);

  bench::record_report(key, unshared_bfs);
  EXPECT_THROW(report.write(), std::runtime_error);
  collector.runs.clear();
  collector.enabled = false;
  std::remove(report.path.c_str());
}

class BenchArgsDeathTest : public ::testing::Test {
 protected:
  BenchArgsDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

bench::Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return bench::parse_args(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), "bench_test",
                           "test bench");
}

TEST(BenchArgs, DefaultsAndSharedFlags) {
  const bench::Options defaults = parse({});
  EXPECT_EQ(defaults.jobs, 1);
  EXPECT_FALSE(defaults.smoke);
  EXPECT_EQ(defaults.datasets.size(), std::size(kAllDatasets));

  const bench::Options opts =
      parse({"--jobs", "3", "--smoke", "--datasets", "yt,WK"});
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_TRUE(opts.smoke);
  ASSERT_EQ(opts.datasets.size(), 2u);
  EXPECT_EQ(opts.datasets[0], DatasetId::kYT);
  EXPECT_EQ(opts.datasets[1], DatasetId::kWK);
}

TEST_F(BenchArgsDeathTest, SharedCommandLineRejectsBadInput) {
  EXPECT_EXIT(parse({"--jobs", "abc"}), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
  EXPECT_EXIT(parse({"--jobs"}), ::testing::ExitedWithCode(2),
              "--jobs needs a value");
  EXPECT_EXIT(parse({"--no-such-flag"}), ::testing::ExitedWithCode(2),
              "unknown option --no-such-flag");
  EXPECT_EXIT(parse({"--datasets", "XX"}), ::testing::ExitedWithCode(2),
              "unknown dataset XX");
}

}  // namespace
}  // namespace hyve
