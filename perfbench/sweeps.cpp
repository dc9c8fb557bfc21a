// The two sweep workloads: grid-default and kernel-sweep.
//
// Untraced reps run the grid through exp::SweepEngine exactly as
// tools/hyve_experiments does. Traced reps run the same cells through the
// layers' public calls, in the order exp::run_cached makes them, with a
// LayerSpan around each call; the one call no outside caller can reach,
// compute_partition_stats inside the accounting walk, is timed through a
// link-time wrapper (CMakeLists.txt). Traced reps also switch on the
// simulator's own host profiler (what --host-profile does) and report how
// the outside-in spans compare with its in-program spans.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/frontier.hpp"
#include "bench.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "exp/sweep.hpp"
#include "graph/partitioner.hpp"
#include "obs/host_profiler.hpp"
#include "obs/registry.hpp"

// Link-time interposition on hyve::compute_partition_stats. The
// --wrap'ed call from HyveMachine's accounting lands here; the weak
// reference keeps the benchmark linking if the function ever goes away
// (its metric then reads 0).
hyve::PartitionStats perfbench_real_partition_stats(
    const hyve::Partitioning& schedule, int num_pus)
    __asm__("__real__ZN4hyve23compute_partition_statsERKNS_12PartitioningEi")
    __attribute__((weak));
hyve::PartitionStats perfbench_wrapped_partition_stats(
    const hyve::Partitioning& schedule, int num_pus)
    __asm__("__wrap__ZN4hyve23compute_partition_statsERKNS_12PartitioningEi");
hyve::PartitionStats perfbench_wrapped_partition_stats(
    const hyve::Partitioning& schedule, int num_pus) {
  const perfbench::LayerSpan span("graph.partition_stats_ms");
  return perfbench_real_partition_stats(schedule, num_pus);
}

namespace perfbench {
namespace {

using hyve::DatasetId;
using hyve::Graph;
using hyve::RunReport;
using hyve::exp::SweepCell;

// FNV-1a 64 of `hyve_experiments` stdout at the default balance seed
// (--seed 0), for the commands named below. The sweep's records must
// reproduce these bytes.
// `perfbench digest < out.jsonl` prints the digest of such output.
constexpr std::uint64_t kGridDefaultDigest =
    0xcab80ce8d51eb7a7;  // hyve_experiments --jobs 1
constexpr std::uint64_t kKernelSweepDigest =
    0x7176641e6b985c29;  // hyve_experiments --configs opt --frontier
                         //   --partitioner interval,hep:tau=2
                         //   --algos bfs,cc,pr,sssp,spmv --jobs 2

// Cells whose per-span times a traced rep keeps.
struct CellTrace {
  LayerTimes times;
  double cell_ns = 0;
  std::string record;
  bool invariant_ok = false;
  std::string functional_key;
  bool frontier = false;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_processed = 0;
  std::uint64_t functional_edges = 0;
  std::shared_ptr<const hyve::Partitioning> schedule;
};

// The layer spans that tile a cell. graph.partition_stats_ms is nested
// inside core.account_ms, so it is not part of the sum.
constexpr const char* kCellLayers[] = {
    "graph.remap_ms", "graph.partition_build_ms", "graph.transpose_ms",
    "algos.functional_ms", "core.account_ms", "core.report_ms"};

// In-program host spans compared against the outside-in ones.
const char* const kHostSpans[] = {
    "partition.build", "partition.soa_transpose",
    "partition.source_block_index", "machine.functional", "machine.run"};

double host_span_us(const char* name) {
  return static_cast<double>(
      hyve::obs::registry().histogram(std::string("host.span.") + name).sum());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const Args& args)
      : data_dir_(args.data_dir), seed_(args.seed) {
    if (args.workload == "grid-default") {
      // The built-in hyve_experiments grid at the CLI's defaults.
      spec_.configs = hyve::fig16_accelerator_configs();
      spec_.algorithms.assign(std::begin(hyve::kCoreAlgorithms),
                              std::end(hyve::kCoreAlgorithms));
      jobs_ = 1;
      pinned_digest_ = kGridDefaultDigest;
    } else {
      hyve::HyveConfig frontier = hyve::HyveConfig::hyve_opt();
      frontier.frontier_block_skipping = true;
      frontier.label = "acc+HyVE-opt+frontier";
      spec_.configs = {hyve::HyveConfig::hyve_opt(), frontier};
      spec_.partitioners = {*hyve::parse_partitioner("interval"),
                            *hyve::parse_partitioner("hep:tau=2")};
      spec_.algorithms.assign(std::begin(hyve::kAllAlgorithms),
                              std::end(hyve::kAllAlgorithms));
      jobs_ = 2;
      pinned_digest_ = kKernelSweepDigest;
    }
    // The seed picks the §4.3 hash-balance permutation; 0 keeps the
    // default seed and so today's bytes.
    for (hyve::HyveConfig& config : spec_.configs)
      config.hash_balance_seed ^= seed_;
    for (const DatasetId id : hyve::kAllDatasets) {
      ids_.push_back(id);
      names_.push_back(hyve::dataset_name(id));
      spec_.graphs.push_back(key_of(names_.back()));
    }
    cells_ = hyve::exp::expand(spec_);
  }

  void warm() override { warm_datasets(data_dir_, ids_); }

  RepResult rep(bool traced) override {
    RepResult r;
    std::vector<std::string> records;
    std::vector<bool> invariant_ok;
    {
      hyve::exp::GraphCache graphs;
      hyve::exp::PartitionCache partitions;
      r.setup_s = load_graphs(graphs, traced ? &r.layers : nullptr);
      if (traced) {
        run_traced(graphs, partitions, r, records, invariant_ok);
      } else {
        run_engine(graphs, partitions, r, records, invariant_ok);
      }
    }
    check(records, invariant_ok, r);
    return r;
  }

 private:
  static std::string key_of(const std::string& name) {
    return "perfbench:" + name;
  }

  double load_graphs(hyve::exp::GraphCache& graphs,
                     std::map<std::string, double>* layers) {
    const auto start = Clock::now();
    for (std::size_t g = 0; g < ids_.size(); ++g)
      graphs.add(spec_.graphs[g], load_dataset(data_dir_, ids_[g]));
    const double seconds = seconds_since(start);
    if (layers != nullptr) (*layers)["graph.load_ms"] = seconds * 1e3;
    return seconds;
  }

  // One JSONL record as hyve_experiments writes it ("@<graph>" appended to
  // the config label), or "" when the record fails validation.
  std::string record_line(const SweepCell& cell, const RunReport& report) const {
    RunReport annotated = report;
    annotated.config_label += "@" + names_[graph_index(cell)];
    try {
      return hyve::validated_report_json(annotated) + "\n";
    } catch (const std::exception&) {
      return "";
    }
  }

  std::size_t graph_index(const SweepCell& cell) const {
    return cell.index % spec_.graphs.size();  // graphs are innermost
  }

  static bool invariant_holds(const RunReport& report) {
    return report.edges_traversed == report.stats.edge_ops;
  }

  void run_engine(hyve::exp::GraphCache& graphs,
                  hyve::exp::PartitionCache& partitions, RepResult& r,
                  std::vector<std::string>& records,
                  std::vector<bool>& invariant_ok) {
    records.assign(cells_.size(), "");
    hyve::exp::SweepOptions options;
    options.jobs = jobs_;
    options.on_result = [&](const SweepCell& cell, const RunReport& report) {
      records[cell.index] = record_line(cell, report);
    };
    hyve::exp::SweepEngine engine(graphs, partitions);
    const auto start = Clock::now();
    const std::vector<hyve::exp::SweepResult> results =
        engine.run(spec_, options);
    r.wall_s = seconds_since(start);
    for (const hyve::exp::SweepResult& result : results) {
      invariant_ok.push_back(invariant_holds(result.report));
      r.ops += static_cast<double>(result.report.edges_traversed);
    }
    r.ops_seconds = r.wall_s;
  }

  // exp::run_cached, call by call, with a span around each layer call.
  void traced_cell(hyve::exp::GraphCache& graphs,
                   hyve::exp::PartitionCache& partitions, const SweepCell& cell,
                   CellTrace& t) const {
    const auto cell_start = Clock::now();
    const LayerScope scope(t.times);
    const hyve::HyveMachine machine(cell.config);
    const auto program = hyve::make_program(cell.algorithm);
    std::shared_ptr<const Graph> graph;
    std::string schedule_key = cell.graph_key;
    {
      const LayerSpan span("graph.remap_ms");
      graph = graphs.acquire(cell.graph_key);
      if (cell.config.hash_balance) {
        graph = graphs.acquire_balanced(cell.graph_key,
                                        cell.config.hash_balance_seed);
        schedule_key = hyve::exp::GraphCache::balanced_key(
            cell.graph_key, cell.config.hash_balance_seed);
      }
    }
    const std::uint32_t p =
        machine.choose_num_intervals(*graph, program->vertex_value_bytes());
    {
      const LayerSpan span("graph.partition_build_ms");
      t.schedule = partitions.acquire(schedule_key, *graph, p,
                                      cell.config.partitioner);
    }
    t.frontier = cell.config.frontier_block_skipping;
    {
      // The lazy SoA images the functional pass would otherwise build on
      // first use: edge columns always, the source-block index only where
      // run_frontier's pattern reuse asks for it.
      const LayerSpan span("graph.transpose_ms");
      t.schedule->edge_columns();
      if (t.frontier && hyve::pattern_reuse_enabled() &&
          !program->has_apply_phase() && program->max_iterations() > 1)
        t.schedule->source_block_index();
    }
    t.functional_key = schedule_key + "|" + program->name() + "|" +
                       cell.config.partitioner.to_string() + "|" +
                       std::to_string(p) + "|" + (t.frontier ? "f" : "d");
    std::optional<hyve::FunctionalOutcome> outcome;
    {
      const LayerSpan span("algos.functional_ms");
      outcome = machine.run_functional_phase(*graph, *t.schedule, *program);
    }
    t.functional_edges = outcome->result.edges_traversed;
    if (outcome->frontier.has_value()) {
      t.blocks_skipped = outcome->frontier->blocks_skipped;
      for (std::uint32_t it = 0; it < outcome->frontier->iterations(); ++it)
        t.blocks_processed +=
            outcome->frontier->active_blocks_in_iteration(it);
    }
    std::optional<RunReport> report;
    {
      const LayerSpan span("core.account_ms");
      report = machine.run_with_functional(*graph, *t.schedule, *program,
                                           *outcome);
    }
    t.invariant_ok = invariant_holds(*report);
    {
      const LayerSpan span("core.report_ms");
      t.record = record_line(cell, *report);
    }
    t.cell_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                         cell_start)
                    .count();
  }

  void run_traced(hyve::exp::GraphCache& graphs,
                  hyve::exp::PartitionCache& partitions, RepResult& r,
                  std::vector<std::string>& records,
                  std::vector<bool>& invariant_ok) {
    std::vector<CellTrace> traces(cells_.size());
    hyve::obs::set_enabled(true);
    hyve::obs::host_profiler().start();
    std::map<std::string, double> host_before;
    for (const char* name : kHostSpans) host_before[name] = host_span_us(name);

    const auto start = Clock::now();
    hyve::exp::parallel_cells(cells_.size(), jobs_, [&](std::size_t i) {
      traced_cell(graphs, partitions, cells_[i], traces[i]);
    });
    r.wall_s = seconds_since(start);

    hyve::obs::host_profiler().stop();
    std::map<std::string, double> host_ms;
    for (const char* name : kHostSpans)
      host_ms[name] = (host_span_us(name) - host_before[name]) / 1e3;
    hyve::obs::set_enabled(false);

    std::map<std::string, double>& L = r.layers;
    std::vector<double> cell_ms;
    std::map<std::string, std::vector<double>> case_ms;
    std::set<std::string> seen_keys;
    std::set<const hyve::Partitioning*> schedules;
    double covered_ns = 0, cell_ns = 0, schedule_bytes = 0, schedule_edges = 0;
    double redundant = 0, skipped = 0, processed = 0, edges = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const CellTrace& t = traces[i];
      records.push_back(t.record);
      invariant_ok.push_back(t.invariant_ok);
      for (const auto& [name, ns] : t.times.ns) L[name] += ns / 1e6;
      for (const char* layer : kCellLayers) covered_ns += t.times.get(layer);
      cell_ns += t.cell_ns;
      cell_ms.push_back(t.cell_ns / 1e6);
      if (!seen_keys.insert(t.functional_key).second) ++redundant;
      const double functional_ms = t.times.get("algos.functional_ms") / 1e6;
      if (t.frontier) {
        L["algos.frontier_ms"] += functional_ms;
        skipped += static_cast<double>(t.blocks_skipped);
        processed += static_cast<double>(t.blocks_processed);
      } else if (cells_[i].config.partitioner.is_default()) {
        case_ms[case_metric_name(names_[graph_index(cells_[i])],
                                 cells_[i].algorithm)]
            .push_back(functional_ms);
      }
      edges += static_cast<double>(t.functional_edges);
      if (schedules.insert(t.schedule.get()).second) {
        schedule_bytes += static_cast<double>(
            t.schedule->grouped_edges().capacity() * sizeof(hyve::Edge) +
            t.schedule->lazy_bytes());
        schedule_edges += static_cast<double>(t.schedule->num_edges());
      }
      r.ops += static_cast<double>(t.functional_edges);
    }
    r.ops_seconds = r.wall_s;
    const double n = static_cast<double>(cells_.size());
    const double workers = std::min<double>(jobs_, n);
    for (const auto& [name, values] : case_ms) {
      double sum = 0;
      for (const double v : values) sum += v;
      L[name] = sum / static_cast<double>(values.size());
    }
    L["graph.schedules"] = static_cast<double>(schedules.size());
    L["graph.partition_bytes_per_edge"] = ratio(schedule_bytes, schedule_edges);
    L["algos.functional_medges_per_s"] =
        ratio(edges, L["algos.functional_ms"] * 1e3);
    L["algos.redundant_frac"] = redundant / n;
    L["algos.reuse_skipped_frac"] = ratio(skipped, processed);
    L["exp.cell_ms_p50"] = quantile(cell_ms, 0.50);
    L["exp.cell_ms_p85"] = quantile(cell_ms, 0.85);
    L["exp.parallel_efficiency"] = cell_ns / 1e9 / (workers * r.wall_s);
    L["trace.coverage"] = covered_ns / 1e9 / (workers * r.wall_s);
    L["trace.xcheck.partition_build"] =
        ratio(L["graph.partition_build_ms"], host_ms["partition.build"]);
    L["trace.xcheck.transpose"] =
        ratio(L["graph.transpose_ms"], host_ms["partition.soa_transpose"] +
                                           host_ms["partition.source_block_index"]);
    L["trace.xcheck.functional"] =
        ratio(L["algos.functional_ms"], host_ms["machine.functional"]);
    L["trace.xcheck.account"] =
        ratio(L["core.account_ms"], host_ms["machine.run"]);
  }

  // Counts the cells of this rep that fail a check. The first rep's
  // records become the reference after their own checks: the pinned
  // digest at seed 0, and an independent re-run of sampled cells.
  void check(const std::vector<std::string>& records,
             const std::vector<bool>& invariant_ok, RepResult& r) {
    r.attempted = cells_.size();
    if (records.size() != cells_.size() ||
        invariant_ok.size() != cells_.size())
      throw std::logic_error("sweep produced the wrong number of records");
    if (reference_.empty()) {
      reference_ = records;
      std::uint64_t digest = fnv1a("");
      for (const std::string& record : records) digest = fnv1a(record, digest);
      std::cout << "records digest " << hex64(digest) << "\n";
      if (seed_ == 0 && digest != pinned_digest_) {
        std::cout << "FAIL: digest differs from the pinned hyve_experiments "
                     "digest "
                  << hex64(pinned_digest_) << "\n";
        r.failed = cells_.size();
        return;
      }
      r.failed += check_sampled_cells();
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const bool ok =
          !records[i].empty() && invariant_ok[i] && records[i] == reference_[i];
      if (!ok) {
        std::cout << "FAIL: cell " << i << " (" << cells_[i].config.label
                  << " " << hyve::algorithm_name(cells_[i].algorithm) << " "
                  << names_[graph_index(cells_[i])] << ")\n";
        ++r.failed;
      }
    }
  }

  // Re-runs one seed-chosen cell per graph through HyveMachine::run on a
  // separately loaded graph — no sweep caches, its own remap and
  // partition — and compares the records byte for byte.
  std::uint64_t check_sampled_cells() const {
    const std::size_t g_count = spec_.graphs.size();
    const std::size_t per_graph = cells_.size() / g_count;
    std::uint64_t failed = 0;
    for (std::size_t g = 0; g < g_count; ++g) {
      const std::size_t pick =
          (seed_ * 0x9E3779B97F4A7C15ULL + g * 40503) % per_graph;
      const SweepCell& cell = cells_[pick * g_count + g];
      const Graph graph = load_dataset(data_dir_, ids_[g]);
      const RunReport report =
          hyve::HyveMachine(cell.config).run(graph, cell.algorithm);
      if (record_line(cell, report) != reference_[cell.index]) {
        std::cout << "FAIL: cell " << cell.index
                  << " differs from an uncached HyveMachine::run\n";
        ++failed;
      }
    }
    return failed;
  }

  std::string data_dir_;
  std::uint64_t seed_;
  hyve::exp::SweepSpec spec_;
  std::vector<SweepCell> cells_;
  std::vector<DatasetId> ids_;
  std::vector<std::string> names_;
  int jobs_ = 1;
  std::uint64_t pinned_digest_ = 0;
  std::vector<std::string> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(const Args& args) {
  return std::make_unique<SweepWorkload>(args);
}

}  // namespace perfbench
