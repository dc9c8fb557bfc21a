// perfbench — the repository's host-performance benchmark.
//
//   perfbench warm   --workload W --data DIR
//   perfbench run    --workload W --seed N --seconds S --trace 0|1 --data DIR
//   perfbench digest < records.jsonl
//
// `run` repeats the workload until S seconds have passed (after one
// untimed first rep that establishes the reference outputs), prints every
// metric by name and unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (medians over the
// timed reps); with --trace 1 the per-layer ones, from traced reps that
// alternate with untraced reps so the tracing overhead is measured too.
// Any failed check makes the exit code 1. `digest` prints the FNV-1a 64
// digest that the sweeps compare against, for any record stream.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "algos/runner.hpp"
#include "bench.hpp"
#include "graph/io.hpp"

namespace perfbench {

thread_local LayerTimes* LayerTimes::current = nullptr;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string dataset_file(const std::string& data_dir, hyve::DatasetId id) {
  const hyve::DatasetSpec& s = hyve::dataset_spec(id);
  char spec[512];
  std::snprintf(spec, sizeof spec, "%s|%u|%llu|%.17g|%.17g|%.17g|%.17g|%d|%d|%llu",
                s.name, static_cast<unsigned>(s.vertices),
                static_cast<unsigned long long>(s.edges), s.rmat.a, s.rmat.b,
                s.rmat.c, s.rmat.d, s.rmat.allow_self_loops ? 1 : 0,
                s.rmat.deduplicate ? 1 : 0,
                static_cast<unsigned long long>(s.seed));
  return (std::filesystem::path(data_dir) /
          (std::string(s.name) + "-" + hex64(fnv1a(spec)) + ".bin"))
      .string();
}

void warm_datasets(const std::string& data_dir,
                   const std::vector<hyve::DatasetId>& ids) {
  std::filesystem::create_directories(data_dir);
  for (const hyve::DatasetId id : ids) {
    const std::string path = dataset_file(data_dir, id);
    if (std::filesystem::exists(path)) continue;
    const std::string tmp = path + ".tmp";
    hyve::save_graph_binary(hyve::dataset_graph(id), tmp);
    std::filesystem::rename(tmp, path);
  }
}

hyve::Graph load_dataset(const std::string& data_dir, hyve::DatasetId id) {
  return hyve::load_graph_binary(dataset_file(data_dir, id));
}

std::vector<std::string> all_layer_metric_names() {
  std::vector<std::string> names = {
      "graph.load_ms",           "graph.remap_ms",
      "graph.partition_build_ms", "graph.partition_stats_ms",
      "graph.transpose_ms",      "graph.partition_bytes_per_edge",
      "graph.schedules",         "algos.functional_ms"};
  for (const hyve::DatasetId id : hyve::kAllDatasets)
    for (const hyve::Algorithm a : hyve::kAllAlgorithms)
      names.push_back(case_metric_name(hyve::dataset_name(id), a));
  for (const char* name :
       {"algos.frontier_ms", "algos.functional_medges_per_s",
        "algos.redundant_frac", "algos.reuse_skipped_frac", "core.account_ms",
        "core.report_ms", "exp.cell_ms_p50", "exp.cell_ms_p85",
        "exp.parallel_efficiency", "dynamic.build_ms.hyve",
        "dynamic.build_ms.graphr", "dynamic.add_edge_ns",
        "dynamic.delete_edge_ns", "dynamic.add_vertex_ns",
        "dynamic.delete_vertex_ns", "dynamic.req_ns_p50", "dynamic.req_ns_p999",
        "dynamic.rebuilds", "dynamic.overflow_chunks",
        "dynamic.mreq_per_s", "dynamic.graphr_mreq_per_s",
        "dynamic.raw_refused_frac",
        "trace.coverage", "trace.overhead_frac", "trace.xcheck.partition_build",
        "trace.xcheck.transpose", "trace.xcheck.functional",
        "trace.xcheck.account"})
    names.emplace_back(name);
  return names;
}

std::string case_metric_name(const std::string& graph,
                             hyve::Algorithm algorithm) {
  std::string algo = hyve::algorithm_name(algorithm);
  for (char& c : algo)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return "algos.functional_ms." + graph + "." + algo;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench warm --workload W --data DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR\n"
               "       perfbench digest < records.jsonl\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--data") {
        args.data_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.data_dir.empty()) usage("--data is required");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "grid-default" || args.workload == "kernel-sweep")
    return make_sweep_workload(args);
  if (args.workload == "dynamic-mix") return make_dynamic_workload(args);
  usage("unknown workload '" + args.workload + "'");
}

// JSON numbers cannot be NaN or infinite; a metric that is either is a
// measurement failure, not a value.
std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

// Units of the per-layer metrics, by name prefix or suffix.
std::string layer_unit(const std::string& name) {
  const auto ends_with = [&](std::string_view s) {
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_ns") != std::string::npos) return "ns";
  if (ends_with("_per_s")) return "M/s";
  if (ends_with("bytes_per_edge")) return "B/edge";
  if (name == "graph.schedules" || name == "dynamic.rebuilds" ||
      name == "dynamic.overflow_chunks")
    return "count";
  return "ratio";
}

int run(const Args& args) {
  const std::unique_ptr<Workload> workload = make_workload(args);

  // The first rep builds the reference and warms the allocator; it is
  // checked like every other rep but not timed.
  RepResult first = workload->rep(false);
  std::uint64_t attempted = first.attempted;
  std::uint64_t failed = first.failed;

  // Reps run while the next one, judged by the last, still fits in
  // --seconds, so a run's length does not depend on where a rep ends.
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  const auto start = Clock::now();
  double last_rep_s = 0;
  constexpr std::size_t kMinReps = 2;
  while (plain.size() < kMinReps || (args.trace && traced.size() < kMinReps) ||
         seconds_since(start) + last_rep_s <= args.seconds) {
    const bool trace_this =
        args.trace && traced.size() < plain.size();  // alternate
    const auto rep_start = Clock::now();
    RepResult r = workload->rep(trace_this);
    last_rep_s = seconds_since(rep_start);
    std::cout << (trace_this ? "traced" : "untraced") << " rep: setup "
              << r.setup_s << " s, wall " << r.wall_s << " s, rate "
              << r.ops / r.ops_seconds / 1e6 << " M/s\n";
    attempted += r.attempted;
    failed += r.failed;
    (trace_this ? traced : plain).push_back(std::move(r));
  }

  const auto med = [](const std::vector<RepResult>& reps, auto field) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(field(r));
    return median(v);
  };
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << plain.size() << " untraced + " << traced.size()
            << " traced reps after the reference rep\n";
  const double wall_s = med(plain, [](const RepResult& r) { return r.wall_s; });
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back(
        {"setup_s", med(plain, [](const RepResult& r) { return r.setup_s; }),
         "s"});
    metrics.push_back({"wall_s", wall_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
    // Printed for people, not gated: the operation rate (see RepResult)
    // and the failure share, which the gate reads as failed / attempted.
    std::cout << "metric mreq_per_s = "
              << med(plain,
                     [](const RepResult& r) {
                       return r.ops / r.ops_seconds / 1e6;
                     })
              << " M/s\n";
    std::cout << "metric failed_frac = "
              << static_cast<double>(failed) / static_cast<double>(attempted)
              << " ratio\n";
    for (const auto& entry : first.extra) {
      const std::string& name = entry.first;
      std::cout << "metric " << name << " = "
                << med(plain, [&](const RepResult& r) {
                     return r.extra.at(name);
                   })
                << " " << layer_unit(name) << "\n";
    }
  } else {
    for (const std::string& name : all_layer_metric_names()) {
      double value = 0;
      if (name == "trace.overhead_frac") {
        value = med(traced, [](const RepResult& r) { return r.wall_s; }) /
                    wall_s -
                1.0;
      } else if (first.extra.count(name) != 0) {
        value = med(plain, [&](const RepResult& r) { return r.extra.at(name); });
      } else {
        value = med(traced, [&](const RepResult& r) {
          const auto it = r.layers.find(name);
          return it == r.layers.end() ? 0.0 : it->second;
        });
      }
      metrics.push_back({name, value, layer_unit(name)});
    }
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int digest() {
  const std::string bytes{std::istreambuf_iterator<char>(std::cin),
                          std::istreambuf_iterator<char>()};
  std::cout << hex64(fnv1a(bytes)) << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  try {
    if (command == "digest") return digest();
    const Args args = parse_args(argc, argv);
    if (command == "warm") {
      make_workload(args)->warm();
      return 0;
    }
    if (command == "run") return run(args);
    usage("unknown command " + command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
