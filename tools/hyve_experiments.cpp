// hyve_experiments — batch experiment driver emitting JSON lines.
//
// Runs a (configs x algorithms x datasets) grid on the src/exp sweep
// engine — a worker pool sharing one graph/partition cache — and writes
// one record per run to stdout, for plotting scripts and CI dashboards:
//
//   hyve_experiments                      # full grid, built-in datasets
//   hyve_experiments --jobs 8             # 8 worker threads, same output
//   hyve_experiments --datasets YT,WK     # subset
//   hyve_experiments --algos bfs,pr --configs opt,sd
//   hyve_experiments --partitioner interval,hep,splitmerge
//   hyve_experiments --frontier           # add the block-skipping variant
//   hyve_experiments --format csv         # spreadsheet-friendly table
//   hyve_experiments --cache-stats        # cache and memo counters
//
// Output is deterministic and order-stable for any --jobs value.
#include <iostream>
#include <string>

#include "core/report_io.hpp"
#include "exp/run_session.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hyve;

  exp::SweepSpec spec = exp::SweepSpec::full_grid();
  bool add_frontier = false;
  exp::SweepOptions options;
  options.jobs = 1;  // historical default: serial
  auto format = exp::ResultSink::Format::kJsonl;
  bool cache_stats = false;

  cli::ArgParser parser("hyve_experiments",
                        "run a (configs x algorithms x datasets) grid and "
                        "emit one record per run");
  parser.option("--datasets", "YT,WK,...", "datasets to sweep (default all)",
                [&](const std::string& v) {
                  spec.graphs.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto id = parse_dataset(name);
                    if (!id) parser.fail("unknown dataset " + name);
                    spec.graphs.push_back(dataset_name(*id));
                  }
                });
  parser.option("--algos", "bfs,cc,pr,sssp,spmv",
                "algorithms to sweep (default bfs,cc,pr)",
                [&](const std::string& v) {
                  spec.algorithms.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto algo = parse_algorithm(name);
                    if (!algo) parser.fail("unknown algorithm " + name);
                    spec.algorithms.push_back(*algo);
                  }
                });
  parser.option("--configs", "opt,hyve,sd,dram,reram",
                "machine configs to sweep (default all five)",
                [&](const std::string& v) {
                  spec.configs.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto cfg = parse_config_label(name);
                    if (!cfg) parser.fail("unknown config " + name);
                    spec.configs.push_back(*cfg);
                  }
                });
  parser.option(
      "--partitioner", "interval,hep:tau=2,splitmerge:chunks=8",
      "partitioning strategies crossed with every config (default interval)",
      [&](const std::string& v) {
        spec.partitioners.clear();
        for (const std::string& name : cli::split_csv(v)) {
          const auto p = parse_partitioner(name);
          if (!p) parser.fail("unknown partitioner " + name);
          spec.partitioners.push_back(*p);
        }
      });
  parser.flag("--frontier", "add the block-skipping variant", &add_frontier);
  parser.option("--jobs", "N",
                "worker threads (0 = hardware concurrency; default 1)",
                [&](const std::string& v) {
                  options.jobs = static_cast<int>(
                      cli::parse_int(parser, "--jobs", v, 0, 4096));
                });
  parser.option("--format", "jsonl|csv", "output format (default jsonl)",
                [&](const std::string& v) {
                  const auto f = exp::ResultSink::parse_format(v);
                  if (!f) parser.fail("unknown format " + v);
                  format = *f;
                });
  parser.flag("--cache-stats",
              "print graph/partition/functional cache statistics to stderr",
              &cache_stats);
  exp::RunSession session(parser, "hyve_experiments");
  parser.parse(argc, argv);

  if (add_frontier) {
    HyveConfig frontier = HyveConfig::hyve_opt();
    frontier.frontier_block_skipping = true;
    frontier.label = "acc+HyVE-opt+frontier";
    spec.configs.push_back(frontier);
  }

  try {
    // The flight recorder flushes stdout before it exits, so an
    // interrupted sweep leaves every finished record on the pipe.
    session.start(argc, argv);
    options.trace = session.trace();
    exp::GraphCache graphs;
    exp::PartitionCache partitions;
    exp::SweepEngine engine(graphs, partitions);
    exp::ResultSink sink(std::cout, format);
    engine.run(spec, options, &sink);
    if (cache_stats)
      exp::print_cache_stats(std::cerr, graphs, partitions,
                             engine.functional());
    session.finish();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
