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

#include "algos/frontier.hpp"
#include "core/bench_json.hpp"
#include "core/machine.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
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

// Functional-phase memo for run_dataset's one-off cells (run_grid's
// SweepEngine memoises per sweep on its own): cells that differ only in
// memory technology run the vertex program once.
inline exp::FunctionalCache& functional_cache() {
  static exp::FunctionalCache cache;
  return cache;
}

// The --partitioner strategy, applied to every cell that flows through
// run_dataset/run_grid. Stays the default interval-block split unless
// the flag was given, so existing bench output is untouched.
inline PartitionerSpec& partitioner_spec() {
  static PartitionerSpec spec;
  return spec;
}

// Collector behind --json: every report that flows through run_dataset /
// run_grid is captured here and serialised by Options::finish(). Off by
// default so benches without --json pay one branch per cell.
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

// The shared bench command line (every bench_* binary accepts these):
//   --jobs N              sweep worker threads (0 = hardware concurrency)
//   --datasets YT,WK,...  restrict the dataset axis of dataset benches
//   --partitioner SPEC    partitioning strategy for every cell
//   --smoke               deterministic stand-ins for wall-clock timings
//   --graph-cache-mb N    byte budget for the shared graph cache
//   --ooc-window-mb N     decode-window budget per blocked graph reader
//   --partition-cache N   entry cap for the shared partition cache
//   --no-pattern-reuse    disable per-iteration pattern reuse in
//                         frontier runs (identical output)
//   --cache-stats         print cache counters to stderr after the run
//   --metrics             dump the full metrics registry to stderr
//   --host-profile        wall-clock spans, memory sampling and stage
//                         rates (host.* metrics; extra trace track)
//   --trace PATH          write a Chrome trace-event JSON of the run
//   --json PATH           write a versioned bench report JSON of the run
//                         (validate/diff/record with hyve_report)
//   --live-status PATH[,interval_ms[,stall_ms]]
//                         publish a live status JSON snapshot (progress,
//                         ETA, worker heartbeats, metrics, RSS) to PATH
//                         on the interval; watch with tools/hyve_top
struct Options {
  int jobs = 1;
  bool smoke = false;
  std::vector<DatasetId> datasets{kAllDatasets.begin(), kAllDatasets.end()};
  bool cache_stats = false;
  bool metrics = false;
  bool host_profile = false;          // --host-profile was given
  std::string trace_path;
  std::shared_ptr<obs::Trace> trace;  // set when --trace was given
  std::string json_path;              // set when --json was given
  // Set when --live-status was given; live_telemetry() runs for the
  // whole bench and finish()/flight_save() publish the final state.
  std::optional<obs::LiveStatusOptions> live;
  std::string bench_name;             // the binary's prog name
  int resolved_jobs = 1;              // jobs with 0 resolved to the machine
  // Process wall-clock epoch for the report's host section, pinned at
  // parse_args time (≈ process start).
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();

  // Emits the requested telemetry. Everything goes to stderr (or the
  // --trace file) so stdout keeps the byte-identical --jobs guarantee
  // (wall times and eviction order depend on worker scheduling). Call at
  // the end of main().
  void finish() const {
    // Stop before the trace/report writes so host.wall_us, the rate
    // gauges, and the final memory sample land in both.
    if (host_profile) obs::host_profiler().stop();
    if (cache_stats || metrics) {
      obs::Registry& reg = obs::registry();
      // The instantaneous occupancy gauges are refreshed here so the
      // dump reflects end-of-run state even if the last touch was an
      // out-of-band eviction (set_byte_budget shrinking a live cache).
      reg.gauge("exp.graph_cache.resident_bytes")
          .set(static_cast<std::int64_t>(graph_cache().resident_bytes()));
      reg.gauge("exp.graph_cache.byte_budget")
          .set(static_cast<std::int64_t>(graph_cache().byte_budget()));
      reg.gauge("exp.partition_cache.resident")
          .set(static_cast<std::int64_t>(partition_cache().resident()));
      reg.gauge("exp.functional_cache.bytes")
          .set(static_cast<std::int64_t>(
              bench::functional_cache().resident_bytes()));
      if (cache_stats) {
        std::cerr << "cache stats: graphs loads="
                  << reg.counter("exp.graph_cache.loads").value()
                  << " evictions="
                  << reg.counter("exp.graph_cache.evictions").value()
                  << " resident_bytes="
                  << reg.gauge("exp.graph_cache.resident_bytes").value()
                  << "; partitions builds="
                  << reg.counter("exp.partition_cache.builds").value()
                  << " evictions="
                  << reg.counter("exp.partition_cache.evictions").value()
                  << " resident="
                  << reg.gauge("exp.partition_cache.resident").value()
                  << "\n";
        for (const auto& [strategy, stats] :
             partition_cache().strategy_stats())
          std::cerr << "partition cache[" << strategy
                    << "]: hits=" << stats.hits
                    << " builds=" << stats.builds
                    << " evictions=" << stats.evictions << "\n";
        std::cerr << "functional cache: hits="
                  << reg.counter("exp.functional_cache.hits").value()
                  << " misses="
                  << reg.counter("exp.functional_cache.misses").value()
                  << " bytes="
                  << reg.gauge("exp.functional_cache.bytes").value() << "\n";
      }
      if (metrics) reg.dump(std::cerr);
    }
    if (trace) trace->write_file(trace_path);
    if (!json_path.empty()) write_json_report();
    // Last, so the final "done" snapshot reflects end-of-run metrics.
    if (obs::live_telemetry().enabled()) obs::live_telemetry().stop("done");
  }

  // Flight-recorder save path: runs once on the recorder thread after
  // SIGINT/SIGTERM (or a hooked abort) and finalizes whatever partial
  // outputs the run was asked for — a truncated but loadable trace, a
  // partial (still --check-clean) bench report, a final "interrupted"
  // status snapshot, and a registry dump to stderr. Sweep workers are
  // still running; every file goes through temp + rename so nothing is
  // ever half-written.
  void flight_save(int signum) const {
    if (obs::live_telemetry().enabled())
      obs::live_telemetry().stop("interrupted");
    if (host_profile) obs::host_profiler().stop();
    if (trace) {
      try {
        trace->write_file_atomic(trace_path, /*truncated=*/true);
        std::cerr << bench_name << ": flight-recorded truncated trace "
                  << trace_path << "\n";
      } catch (const std::exception& e) {
        std::cerr << bench_name
                  << ": trace flight record failed: " << e.what() << "\n";
      }
    }
    if (!json_path.empty()) {
      try {
        write_json_report();
      } catch (const std::exception& e) {
        std::cerr << bench_name
                  << ": report flight record failed: " << e.what() << "\n";
      }
    }
    if (obs::enabled()) obs::registry().dump(std::cerr);
    std::cerr << bench_name << ": flight record complete (signal "
              << signum << ")\n";
  }

 private:
  // Builds and writes the BenchReportDoc from everything the collector
  // captured. Only deterministic content goes in: runs are sorted and
  // deduplicated by (config, algorithm, graph) — run order depends on
  // worker scheduling, the reports themselves do not — and the metrics
  // rollup keeps only sim.* instruments (simulated counts; exp.* mixes
  // in wall clock and eviction order). This is what lets the bench-json
  // CI step byte-diff --jobs 1 against --jobs 8.
  void write_json_report() const {
    BenchReportDoc doc;
    doc.bench = bench_name;
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
    doc.runs.erase(std::unique(doc.runs.begin(), doc.runs.end(),
                               [&](const BenchRun& a, const BenchRun& b) {
                                 return key(a) == key(b);
                               }),
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
    doc.host.jobs = resolved_jobs;
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
    const std::string tmp = json_path + ".part";
    write_bench_report_file(tmp, doc);
    if (std::rename(tmp.c_str(), json_path.c_str()) != 0)
      throw std::runtime_error("cannot publish bench report " + json_path);
    std::cerr << bench_name << ": wrote " << json_path << " ("
              << doc.runs.size() << " run(s))\n";
  }
};

inline Options parse_args(int argc, char** argv, const std::string& prog,
                          const std::string& summary) {
  Options opts;
  opts.bench_name = prog;
  bool explicit_graph_budget = false;
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
  parser.option("--graph-cache-mb", "N",
                "graph cache byte budget in MiB (0 = unbounded; default "
                "auto-sized from available memory)",
                [&](const std::string& v) {
                  explicit_graph_budget = true;
                  graph_cache().set_byte_budget(
                      units::MiB(static_cast<std::uint64_t>(cli::parse_int(
                          parser, "--graph-cache-mb", v, 0, 1 << 20))));
                });
  parser.option("--ooc-window-mb", "N",
                "decoded-block window budget per out-of-core blocked graph "
                "reader in MiB (0 = unbounded; default 0)",
                [&](const std::string& v) {
                  graph_cache().set_ooc_window_budget(
                      units::MiB(static_cast<std::uint64_t>(cli::parse_int(
                          parser, "--ooc-window-mb", v, 0, 1 << 20))));
                });
  parser.option("--partition-cache", "N",
                "partition cache entry cap (0 = unbounded; default 0)",
                [&](const std::string& v) {
                  partition_cache().set_max_entries(
                      static_cast<std::size_t>(cli::parse_int(
                          parser, "--partition-cache", v, 0, 1 << 20)));
                });
  parser.flag("--no-pattern-reuse",
              "disable per-iteration pattern reuse in frontier runs "
              "(identical output, more host work)",
              [&] { set_pattern_reuse_enabled(false); });
  parser.flag("--cache-stats", "print cache counters to stderr",
              &opts.cache_stats);
  parser.flag("--metrics", "dump the metrics registry to stderr",
              &opts.metrics);
  parser.flag("--host-profile",
              "profile the host process: wall-clock spans, RSS sampling "
              "and stage rates as host.* metrics (and a wall-clock trace "
              "track with --trace)",
              &opts.host_profile);
  parser.option("--trace", "PATH",
                "write a Chrome trace-event JSON (chrome://tracing, "
                "Perfetto) of the sweep to PATH",
                [&](const std::string& v) { opts.trace_path = v; });
  parser.option("--json", "PATH",
                "write a versioned bench report JSON (run reports, energy "
                "ledger rollup, sim.* metrics) to PATH; validate or diff "
                "with hyve_report",
                [&](const std::string& v) { opts.json_path = v; });
  parser.option("--live-status", "PATH[,interval_ms[,stall_ms]]",
                "publish a live status JSON snapshot (progress, ETA, "
                "worker heartbeats, metrics, RSS) to PATH on the "
                "interval (default 500 ms); watch with hyve_top",
                [&](const std::string& v) {
                  const auto live = obs::parse_live_status(v);
                  if (!live) parser.fail("bad --live-status spec " + v);
                  opts.live = *live;
                });
  parser.parse(argc, argv);
  // Telemetry is opt-in: the registry stays a single relaxed-load branch
  // in the hot paths unless one of these flags asks for it. Enabling
  // happens before any cell runs, so registry counters match the
  // caches' own whole-run counters.
  if (opts.cache_stats || opts.metrics || !opts.json_path.empty() ||
      opts.host_profile || opts.live)
    obs::set_enabled(true);
  if (!opts.trace_path.empty()) {
    opts.trace = std::make_shared<obs::Trace>();
    add_attribution_metadata(*opts.trace, argc, argv);
  }
  if (!opts.json_path.empty()) json_collector().enabled = true;
  opts.resolved_jobs =
      opts.jobs == 0
          ? static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()))
          : opts.jobs;
  if (opts.host_profile) obs::host_profiler().start(opts.trace.get());
  if (opts.live) {
    opts.live->bench = prog;
    obs::live_telemetry().start(*opts.live);
  }
  // Any run with durable outputs is worth flight-recording: partial
  // results are finalized instead of lost when the run is interrupted.
  if (opts.trace || !opts.json_path.empty() || opts.live) {
    const Options snapshot = opts;
    obs::install_flight_recorder(
        [snapshot](int signum) { snapshot.flight_save(signum); });
  }
  // Without --graph-cache-mb the budget is sized from the machine
  // (fixed 256 MiB under --smoke so CI output is host-independent)
  // instead of growing without bound. Logged to stderr — stdout keeps
  // the byte-identical --jobs guarantee.
  if (!explicit_graph_budget) {
    const std::size_t budget = exp::default_graph_cache_budget(opts.smoke);
    graph_cache().set_byte_budget(budget);
    std::cerr << prog << ": graph cache budget auto-sized to ";
    if (budget > 0)
      std::cerr << budget / (1024 * 1024) << " MiB";
    else
      std::cerr << "unbounded (available memory unknown)";
    std::cerr << " (override with --graph-cache-mb)\n";
  }
  return opts;
}

// Cached equivalent of HyveMachine(cfg).run(dataset_graph(id), algo);
// the report is identical (tested in exp_test).
inline RunReport run_dataset(const HyveConfig& cfg, DatasetId id,
                             Algorithm algo) {
  HyveConfig cell_cfg = cfg;
  if (!partitioner_spec().is_default())
    cell_cfg.set_partitioner(partitioner_spec());
  RunReport report = exp::run_cached(graph_cache(), partition_cache(),
                                     cell_cfg, algo, dataset_name(id),
                                     /*trace=*/nullptr, /*trace_pid=*/1,
                                     &functional_cache());
  record_report(dataset_name(id), report);
  return report;
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
  exp::SweepEngine engine(graph_cache(), partition_cache());
  exp::SweepOptions options;
  options.jobs = opts.jobs;
  options.trace = opts.trace.get();
  // Capture reports as cells flush (not after the sweep returns): a
  // flight-recorded partial --json then carries every finished cell.
  options.on_result = [](const exp::SweepCell& cell,
                         const RunReport& report) {
    record_report(cell.graph_key, report);
  };
  std::vector<exp::SweepResult> results = engine.run(grid_spec, options);
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
