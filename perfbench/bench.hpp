// Shared pieces of the perfbench binary: the workload interface, the
// per-layer span recorder, and small statistics and output helpers.
//
// A workload runs repetitions ("reps"). Each rep sets up its own inputs
// (timed as set-up), runs the timed section once, and checks its outputs
// against the reference the first rep established. A traced rep runs the
// same work through the layers' public calls with a span around each call
// (see LayerSpan), and reports per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algos/runner.hpp"
#include "graph/datasets.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Everything a rep measured. `ops` over `ops_seconds` is the workload's
// operation rate (simulated edges per host second on the sweeps, dynamic
// requests attempted per second of apply time on dynamic-mix).
struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  double ops = 0;
  double ops_seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per-layer metrics measured on every rep. A traced run reports these
  // from its untraced reps, where per-request timing cannot bias them.
  std::map<std::string, double> extra;
  // Per-layer metrics; filled by traced reps only.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Writes the workload's datasets into the benchmark's data directory
  // (generating them on a cold cache). Runs in its own process so that
  // the measuring process never holds the simulator's dataset store.
  virtual void warm() = 0;
  // One repetition. The first call establishes the reference outputs that
  // later calls are checked against.
  virtual RepResult rep(bool traced) = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};

std::unique_ptr<Workload> make_sweep_workload(const Args& args);
std::unique_ptr<Workload> make_dynamic_workload(const Args& args);

// The benchmark's own copy of a built-in dataset: `data_dir`/<name>-<key>
// .bin, where the key hashes the dataset's public spec, so a changed spec
// never reuses a stale file.
std::string dataset_file(const std::string& data_dir, hyve::DatasetId id);
// Writes each dataset's file if it is missing. A cold cache generates the
// graph through hyve::dataset_graph (which honours HYVE_DATASET_CACHE).
void warm_datasets(const std::string& data_dir,
                   const std::vector<hyve::DatasetId>& ids);
// A fresh Graph read from the file warm_datasets wrote: nothing derived
// from it (remap images, edge columns) is shared with earlier loads.
hyve::Graph load_dataset(const std::string& data_dir, hyve::DatasetId id);

// Every per-layer metric name, in BENCHMARK.json order. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
std::vector<std::string> all_layer_metric_names();
// "algos.functional_ms.<graph>.<algo>": one functional phase of a
// (graph, algorithm) case on the dense interval-block schedule.
std::string case_metric_name(const std::string& graph,
                             hyve::Algorithm algorithm);

// ---- per-layer spans --------------------------------------------------

// Per-thread accumulator of span time by layer metric name. A traced rep
// points `current` at the record of the sweep cell the calling thread is
// running; untraced reps leave it null, which turns every span into a
// no-op.
struct LayerTimes {
  std::map<std::string, double, std::less<>> ns;
  void add(std::string_view name, double value) {
    auto it = ns.find(name);
    if (it == ns.end()) it = ns.emplace(std::string(name), 0.0).first;
    it->second += value;
  }
  double get(std::string_view name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0.0 : it->second;
  }
  static thread_local LayerTimes* current;
};

// Points the calling thread's spans at one unit of work for its scope.
class LayerScope {
 public:
  explicit LayerScope(LayerTimes& times) { LayerTimes::current = &times; }
  ~LayerScope() { LayerTimes::current = nullptr; }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;
};

class LayerSpan {
 public:
  explicit LayerSpan(std::string_view name)
      : name_(name), times_(LayerTimes::current), start_(Clock::now()) {}
  ~LayerSpan() {
    if (times_ != nullptr)
      times_->add(name_, std::chrono::duration<double, std::nano>(
                             Clock::now() - start_)
                             .count());
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  std::string_view name_;
  LayerTimes* times_;
  Clock::time_point start_;
};

// ---- helpers ------------------------------------------------------------

// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// FNV-1a 64 of a byte string, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

}  // namespace perfbench
