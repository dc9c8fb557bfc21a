// Shared harness for the bench binaries.
//
// Every bench regenerates one table or figure of the paper: it prints the
// measured table in the paper's layout, followed by a "paper vs measured"
// note for the headline number(s) of that experiment. EXPERIMENTS.md is
// the curated record of these comparisons.
//
// All benches share one command line (parse_args) and run their grid
// cells on the src/exp sweep engine: regular (config × algorithm ×
// dataset) grids go through run_grid/SweepEngine, irregular cell lists
// through run_cells/exp::parallel_cells. Cells are computed into
// index-addressed slots and rendered serially afterwards, so stdout is
// byte-identical for any --jobs value (asserted by the bench-smoke ctest
// label, which diffs --jobs 1 against --jobs 8).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bench_json.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/run_session.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "obs/host_profiler.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace hyve::bench {

// Process-wide caches shared by the fig/table benches: a binary that
// sweeps many configs over the datasets hash-balances and partitions
// each graph once instead of once per (config, algorithm) cell.
inline exp::GraphCache& graph_cache() {
  static exp::GraphCache cache;
  return cache;
}

inline exp::PartitionCache& partition_cache() {
  static exp::PartitionCache cache;
  return cache;
}

// The engine behind run_grid, on the shared caches. Its functional memo
// also serves run_dataset and whole_graph_functional, so every cell the
// bench runs shares one.
inline exp::SweepEngine& sweep_engine() {
  static exp::SweepEngine engine(graph_cache(), partition_cache());
  return engine;
}

// The --partitioner strategy, applied to every cell that flows through
// run_dataset/run_grid. Stays the default interval-block split unless
// the flag was given, so existing bench output is untouched.
inline PartitionerSpec& partitioner_spec() {
  static PartitionerSpec spec;
  return spec;
}

// Collector behind --json: every report that flows through run_dataset /
// run_grid is captured here and serialised by JsonReport::write(). Off
// by default so benches without --json pay one branch per cell.
struct JsonCollector {
  std::mutex mu;
  bool enabled = false;
  std::vector<BenchRun> runs;
};

inline JsonCollector& json_collector() {
  static JsonCollector collector;
  return collector;
}

inline void record_report(const std::string& graph_key,
                          const RunReport& report) {
  JsonCollector& collector = json_collector();
  if (!collector.enabled) return;
  const std::scoped_lock lock(collector.mu);
  collector.runs.push_back(BenchRun{graph_key, report});
}

// The --json bench report. The run session's save hook holds a copy, so
// the flight recorder can write a partial report from its own thread
// without touching main()'s stack.
struct JsonReport {
  std::string bench;
  std::string path;
  bool smoke = false;
  std::vector<DatasetId> datasets;
  int jobs = 1;  // --jobs with 0 resolved to the machine
  // Process wall-clock epoch for the report's host section, pinned at
  // parse_args time (≈ process start).
  std::chrono::steady_clock::time_point started;

  // Builds and writes the BenchReportDoc from everything the collector
  // captured. Only deterministic content goes in: runs are sorted and
  // deduplicated by (config, algorithm, graph) — run order depends on
  // worker scheduling, the reports themselves do not — and the metrics
  // rollup keeps only sim.* instruments (simulated counts; exp.* mixes
  // in wall clock and eviction order). This is what lets the bench-json
  // CI step byte-diff --jobs 1 against --jobs 8. Only a cell computed
  // twice may repeat a key: two different reports under one key throw,
  // since keeping either would drop a run (the bench must give its cells
  // distinct config labels).
  void write() const {
    BenchReportDoc doc;
    doc.bench = bench;
    doc.git_rev = build_git_rev();
    doc.smoke = smoke;
    for (const DatasetId id : datasets)
      doc.datasets.push_back(dataset_name(id));
    {
      JsonCollector& collector = json_collector();
      const std::scoped_lock lock(collector.mu);
      doc.runs = collector.runs;
    }
    const auto key = [](const BenchRun& r) {
      return std::tie(r.report.config_label, r.report.algorithm,
                      r.graph_key);
    };
    std::sort(doc.runs.begin(), doc.runs.end(),
              [&](const BenchRun& a, const BenchRun& b) {
                return key(a) < key(b);
              });
    const auto same_cell = [&](const BenchRun& a, const BenchRun& b) {
      if (key(a) != key(b)) return false;
      if (report_to_json(a.report) != report_to_json(b.report))
        throw std::runtime_error(
            bench + ": two different runs share config \"" +
            a.report.config_label + "\", algorithm " + a.report.algorithm +
            " and graph " + a.graph_key + "; give the cells distinct labels");
      return true;
    };
    doc.runs.erase(std::unique(doc.runs.begin(), doc.runs.end(), same_cell),
                   doc.runs.end());
    for (const BenchRun& run : doc.runs) doc.ledger_rollup += run.report.ledger;
    // The host section is the one wall-clock corner of the report —
    // always filled, so any --json run is recordable into the perf
    // history without extra flags. Deterministic byte-diffs strip the
    // single "host":{...} object (scripts/verify.sh does).
    doc.host.present = true;
    doc.host.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - started)
            .count();
    doc.host.max_rss_kb = obs::read_host_memory().peak_rss_kb;
    doc.host.jobs = jobs;
    std::istringstream dump(obs::registry().dump_string());
    std::string line;
    while (std::getline(dump, line)) {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) continue;
      const std::string name = line.substr(0, eq);
      if (name.rfind("sim.", 0) == 0)
        doc.metrics.emplace(name, line.substr(eq + 1));
    }
    // Temp + rename: the flight recorder can fire while (or after) the
    // normal finish() writes, and readers must never see partial bytes.
    const std::string tmp = path + ".part";
    write_bench_report_file(tmp, doc);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw std::runtime_error("cannot publish bench report " + path);
    std::cerr << bench << ": wrote " << path << " (" << doc.runs.size()
              << " run(s))\n";
  }
};

// The shared bench command line (every bench_* binary accepts these):
//   --jobs N              sweep worker threads (0 = hardware concurrency)
//   --datasets YT,WK,...  restrict the dataset axis of dataset benches
//   --partitioner SPEC    partitioning strategy for every cell
//   --smoke               deterministic stand-ins for wall-clock timings
//   --partition-cache N   entry cap for the shared partition cache
//   --cache-stats         print cache counters to stderr after the run
//   --json PATH           write a versioned bench report JSON of the run
//                         (validate/diff/record with hyve_report)
// plus the exp::RunSession flags (--metrics, --host-profile, --trace,
// --live-status).
struct Options {
  int jobs = 1;
  bool smoke = false;
  std::vector<DatasetId> datasets{kAllDatasets.begin(), kAllDatasets.end()};
  bool cache_stats = false;
  exp::RunSession session;

  // Emits the requested telemetry. Everything goes to stderr (or the
  // --trace/--json files) so stdout keeps the byte-identical --jobs
  // guarantee (wall times and eviction order depend on worker
  // scheduling). Call at the end of main().
  void finish() const {
    if (cache_stats)
      exp::print_cache_stats(std::cerr, graph_cache(), partition_cache(),
                             sweep_engine().functional());
    session.finish();
  }
};

inline Options parse_args(int argc, char** argv, const std::string& prog,
                          const std::string& summary) {
  const auto started = std::chrono::steady_clock::now();
  Options opts;
  std::string json_path;
  cli::ArgParser parser(prog, summary);
  parser.option("--jobs", "N",
                "worker threads (0 = hardware concurrency; default 1)",
                [&](const std::string& v) {
                  opts.jobs = static_cast<int>(
                      cli::parse_int(parser, "--jobs", v, 0, 4096));
                });
  parser.option("--datasets", "YT,WK,...",
                "datasets to include (default all five)",
                [&](const std::string& v) {
                  opts.datasets.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto id = parse_dataset(name);
                    if (!id) parser.fail("unknown dataset " + name);
                    opts.datasets.push_back(*id);
                  }
                  if (opts.datasets.empty())
                    parser.fail("--datasets needs at least one dataset");
                });
  parser.option("--partitioner", "interval|hep:tau=T|splitmerge:chunks=C",
                "partitioning strategy for every cell (default interval)",
                [&](const std::string& v) {
                  const auto p = parse_partitioner(v);
                  if (!p) parser.fail("unknown partitioner " + v);
                  partitioner_spec() = *p;
                });
  parser.flag("--smoke",
              "deterministic stand-ins for wall-clock measurements "
              "(bench-smoke CI; numbers are not measurements)",
              &opts.smoke);
  parser.option("--partition-cache", "N",
                "partition cache entry cap (0 = unbounded; default 0)",
                [&](const std::string& v) {
                  partition_cache().set_max_entries(
                      static_cast<std::size_t>(cli::parse_int(
                          parser, "--partition-cache", v, 0, 1 << 20)));
                });
  parser.flag("--cache-stats", "print cache counters to stderr",
              &opts.cache_stats);
  parser.option("--json", "PATH",
                "write a versioned bench report JSON (run reports, energy "
                "ledger rollup, sim.* metrics) to PATH; validate or diff "
                "with hyve_report",
                [&](const std::string& v) { json_path = v; });
  opts.session = exp::RunSession(parser, prog);
  parser.parse(argc, argv);
  std::function<void()> save_report;
  if (!json_path.empty()) {
    json_collector().enabled = true;
    const int jobs =
        opts.jobs > 0
            ? opts.jobs
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    const JsonReport report{prog,          json_path, opts.smoke,
                            opts.datasets, jobs,      started};
    save_report = [report] { report.write(); };
  }
  opts.session.start(argc, argv, std::move(save_report));
  return opts;
}

// Cached equivalent of HyveMachine(cfg).run(dataset_graph(id), algo);
// the report is identical (tested in exp_test).
inline RunReport run_dataset(const HyveConfig& cfg, DatasetId id,
                             Algorithm algo) {
  HyveConfig cell_cfg = cfg;
  if (!partitioner_spec().is_default())
    cell_cfg.set_partitioner(partitioner_spec());
  RunReport report =
      exp::run_cached(graph_cache(), partition_cache(),
                      sweep_engine().functional(), cell_cfg, algo,
                      dataset_name(id));
  record_report(dataset_name(id), report);
  return report;
}

// The whole-graph pass the CPU and GraphR baselines price, memoised over
// the dataset's P = 1 schedule under the key an unbalanced, dense, P = 1
// HyVE cell would use; equals run_functional(dataset_graph(id), program).
inline FunctionalResult whole_graph_functional(DatasetId id, Algorithm algo) {
  const std::string key = dataset_name(id);
  const auto program = make_program(algo);
  const auto build = [&] {
    const std::shared_ptr<const Graph> graph = graph_cache().acquire(key);
    const std::shared_ptr<const Partitioning> schedule =
        partition_cache().acquire(key, *graph, 1);
    return FunctionalOutcome{run_functional(*graph, *program, *schedule),
                             std::nullopt, 1};
  };
  return sweep_engine()
      .functional()
      .acquire({key, program->name(), "interval", 1, false}, build)
      ->result;
}

// The --datasets filter as GraphCache keys, for SweepSpec::graphs.
inline std::vector<std::string> dataset_keys(const Options& opts) {
  std::vector<std::string> keys;
  keys.reserve(opts.datasets.size());
  for (const DatasetId id : opts.datasets) keys.push_back(dataset_name(id));
  return keys;
}

// A (configs × algorithms × graphs) grid run through the SweepEngine,
// indexable by axis position (row-major, configs outermost).
class GridResults {
 public:
  GridResults(exp::SweepSpec spec, std::vector<exp::SweepResult> results)
      : spec_(std::move(spec)), results_(std::move(results)) {}

  const exp::SweepSpec& spec() const { return spec_; }

  const RunReport& at(std::size_t config, std::size_t algorithm,
                      std::size_t graph) const {
    HYVE_CHECK_MSG(config < spec_.configs.size() &&
                       algorithm < spec_.algorithms.size() &&
                       graph < spec_.graphs.size(),
                   "grid index out of range");
    return results_[(config * spec_.algorithms.size() + algorithm) *
                        spec_.graphs.size() +
                    graph]
        .report;
  }

 private:
  exp::SweepSpec spec_;
  std::vector<exp::SweepResult> results_;
};

// Declarative grid → engine → indexed results, on the shared caches.
inline GridResults run_grid(const exp::SweepSpec& spec, const Options& opts) {
  exp::SweepSpec grid_spec = spec;
  // --partitioner overrides the grid's strategy axis unless the bench
  // set one deliberately.
  if (!partitioner_spec().is_default() && grid_spec.partitioners.size() == 1 &&
      grid_spec.partitioners.front().is_default())
    grid_spec.partitioners = {partitioner_spec()};
  exp::SweepOptions options;
  options.jobs = opts.jobs;
  options.trace = opts.session.trace();
  // Capture reports as cells flush (not after the sweep returns): a
  // flight-recorded partial --json then carries every finished cell.
  options.on_result = [](const exp::SweepCell& cell,
                         const RunReport& report) {
    record_report(cell.graph_key, report);
  };
  std::vector<exp::SweepResult> results =
      sweep_engine().run(grid_spec, options);
  return GridResults(spec, std::move(results));
}

// Order-stable parallel map for irregular cell lists: computes fn(i) for
// every i in [0, n) on opts.jobs workers and returns the results in index
// order, so rendering from the returned vector is byte-identical for any
// --jobs value.
template <typename Fn>
auto run_cells(std::size_t n, const Options& opts, Fn&& fn) {
  using T = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<T>> slots(n);
  exp::parallel_cells(n, opts.jobs,
                      [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

// Wall-clock benches take this around their timed sections so
// measurements stay meaningful under --jobs > 1: cells overlap in their
// untimed work (graph builds, request generation) but never while a
// stopwatch runs.
inline std::mutex& timing_mutex() {
  static std::mutex mu;
  return mu;
}

inline void header(const std::string& id, const std::string& title) {
  std::cout << "\n================================================\n"
            << id << " — " << title << "\n"
            << "================================================\n";
}

inline void paper_note(const std::string& note) {
  std::cout << "paper: " << note << "\n";
}

inline void measured_note(const std::string& note) {
  std::cout << "measured: " << note << "\n";
}

// A verdict computed from a bench's (algorithm, dataset) cells:
// "<claim> in k of n (algorithm, dataset) cells (fails: ...), so
// \"<paper>\" holds" (or "does not hold" when any cell fails).
inline std::string cell_verdict(const std::string& claim,
                                std::size_t num_cells,
                                const std::vector<std::string>& failing,
                                const std::string& paper) {
  std::ostringstream os;
  os << claim << " in " << num_cells - failing.size() << " of " << num_cells
     << " (algorithm, dataset) cells";
  if (!failing.empty()) {
    os << " (fails:";
    for (const std::string& cell : failing) os << ' ' << cell;
    os << ')';
  }
  os << ", so \"" << paper << "\" "
     << (failing.empty() ? "holds" : "does not hold");
  return os.str();
}

// Geometric mean of ratios (the paper's "on average" improvements).
// Ratios must be positive — a zero or negative ratio would silently turn
// the headline "measured" number into NaN/-inf, so it throws instead.
// The empty case stays an explicit 0.0 ("no ratios, no claim").
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0;
  for (const double x : xs) {
    HYVE_CHECK_MSG(x > 0,
                   "geomean requires positive ratios, got " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / xs.size());
}

}  // namespace hyve::bench
