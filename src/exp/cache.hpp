// Memoising graph and partition caches for the sweep engine (src/exp).
//
// A (config × algorithm × dataset) sweep re-uses the same few graphs in
// every cell; before these caches each cell re-loaded the graph,
// re-applied the §4.3 hash-balancing remap and re-ran the counting-sort
// partitioner. Both caches are safe for concurrent use by the engine's
// worker pool: entries are created under a short map lock and built
// under a per-entry mutex, so two workers needing the same graph share
// one build while workers needing different graphs proceed in parallel.
//
// Sweeps over many generated graphs would otherwise grow the caches
// without bound, so both are optionally size-capped: GraphCache takes a
// byte budget and PartitionCache an entry cap, each enforced by LRU
// eviction. Entries are handed out as shared_ptr, so evicting an entry
// another worker is still using only drops the cache's reference — the
// object is freed when its last user releases it. An evicted entry is
// transparently rebuilt on the next request (build callables must
// therefore be deterministic and repeatable), and evictions are counted
// next to the loads()/builds() stats so cache behaviour is observable in
// sweep output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "core/machine.hpp"
#include "graph/blocked_reader.hpp"
#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partitioner.hpp"

namespace hyve::exp {

// Graphs keyed by a caller-chosen string. The five built-in datasets are
// pre-registered under their short names ("YT".."TW") and resolve through
// dataset_graph()'s process-wide store, so they are never duplicated (and
// never evicted — this cache holds no bytes of theirs).
class GraphCache {
 public:
  GraphCache();

  // Registers a lazily-built graph under `key` (throws if taken). `make`
  // must be deterministic: under a byte budget the entry may be evicted
  // and rebuilt by a later request.
  void add(const std::string& key, std::function<Graph()> make);
  // Registers an already-built graph. The cache pins it (it owns the only
  // copy and cannot rebuild it), so it is exempt from eviction.
  void add(const std::string& key, Graph graph);

  // Registers a HyVEgrf2 blocked file (graph/blocked_reader.hpp).
  // acquire() materialises it through the streaming window (evictable
  // and rebuildable from disk like any generated graph);
  // acquire_blocked() hands out the reader itself for consumers that can
  // stream. Reader windows are opened with the ooc window budget and
  // their residency counts against the cache's byte budget — block
  // windows are cached bytes like any other.
  void add_blocked(const std::string& key, const std::string& path);
  std::shared_ptr<BlockedGraphReader> acquire_blocked(const std::string& key);

  // Decoded-window byte budget applied to each blocked reader this
  // cache opens (0 = unbounded, the default). Applies to already-open
  // readers immediately.
  void set_ooc_window_budget(std::size_t bytes);
  std::size_t ooc_window_budget() const;

  bool contains(const std::string& key) const;

  // The registered graph, built on first use. The shared_ptr keeps the
  // graph alive across a concurrent eviction — under a byte budget,
  // prefer these over the reference-returning accessors below.
  std::shared_ptr<const Graph> acquire(const std::string& key);

  // The hashed_remap(seed) image of `key` (§4.3 balancing), memoised per
  // (key, seed) — one remap per sweep instead of one per cell.
  std::shared_ptr<const Graph> acquire_balanced(const std::string& key,
                                                std::uint64_t seed);

  // Reference-returning conveniences for callers that set no byte budget
  // (the reference is valid only while the entry stays resident).
  const Graph& base(const std::string& key) { return *acquire(key); }
  const Graph& balanced(const std::string& key, std::uint64_t seed) {
    return *acquire_balanced(key, seed);
  }

  // Cache key of the balanced image, also used by PartitionCache.
  static std::string balanced_key(const std::string& key,
                                  std::uint64_t seed) {
    return key + "#balanced:" + std::to_string(seed);
  }

  // LRU byte budget over owned graphs (0 = unbounded, the default).
  // Dataset-backed and pinned entries are exempt; everything else is
  // evicted least-recently-used first until the budget holds.
  void set_byte_budget(std::size_t bytes);
  std::size_t byte_budget() const;
  // Bytes of owned graphs plus blocked-reader decode windows currently
  // resident.
  std::size_t resident_bytes() const;

  // Number of graphs materialised so far (builds including rebuilds
  // after eviction, not hits).
  std::size_t loads() const { return loads_.load(); }
  // Number of graphs evicted to satisfy the byte budget.
  std::size_t evictions() const { return evictions_.load(); }

 private:
  struct Entry {
    std::mutex build_mu;  // serialises (re)builds of this entry
    std::function<std::shared_ptr<const Graph>()> build;
    std::shared_ptr<const Graph> graph;  // null until built / after evict
    bool evictable = true;
    std::uint64_t last_use = 0;
    std::size_t bytes = 0;  // accounted while resident
  };

  void add_impl(const std::string& key,
                std::function<std::shared_ptr<const Graph>()> build,
                bool evictable);
  Entry& entry_for(const std::string& key);
  std::shared_ptr<const Graph> materialise(Entry& entry);
  void evict_to_budget_locked(const Entry* keep);

  struct BlockedEntry {
    std::string path;
    std::shared_ptr<BlockedGraphReader> reader;  // opened lazily
    std::uint64_t last_use = 0;
  };

  // Sum of open blocked readers' decoded-window bytes (under mu_).
  std::size_t blocked_window_bytes_locked() const;

  mutable std::mutex mu_;  // guards the maps and LRU state, not builds
  std::map<std::string, std::unique_ptr<Entry>> base_;
  std::map<std::pair<std::string, std::uint64_t>, std::unique_ptr<Entry>>
      balanced_;
  std::map<std::string, BlockedEntry> blocked_;
  std::uint64_t tick_ = 0;  // LRU clock (under mu_)
  std::size_t budget_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::size_t ooc_window_budget_ = 0;
  std::atomic<std::size_t> loads_{0};
  std::atomic<std::size_t> evictions_{0};
};

// Byte budget for a GraphCache when the user gave none: a quarter of
// the machine's currently available memory (/proc/meminfo MemAvailable),
// so a generated-graph sweep cannot swap the host, or 0 (unbounded) on
// platforms where that cannot be read. Smoke runs get a fixed 256 MiB so
// CI output never depends on the host's memory pressure.
std::size_t default_graph_cache_budget(bool smoke);

// Partitionings keyed by (graph key, partitioner strategy, P), so two
// strategies over the same graph can never collide. The caller
// guarantees `key` uniquely identifies the graph's edge layout — use
// GraphCache keys (and GraphCache::balanced_key for remapped images).
class PartitionCache {
 public:
  // Per-strategy counter snapshot (keyed by PartitionerSpec::to_string),
  // so cache effectiveness is attributable per partitioner.
  struct StrategyStats {
    std::size_t hits = 0;
    std::size_t builds = 0;
    std::size_t evictions = 0;
  };

  // The memoised partitioning of `graph` under `spec` (default: the
  // interval-block strategy), built on first use. The shared_ptr stays
  // valid across a concurrent eviction.
  std::shared_ptr<const Partitioning> acquire(
      const std::string& key, const Graph& graph, std::uint32_t num_intervals,
      const PartitionerSpec& spec = {});

  // Reference-returning convenience for callers that set no entry cap
  // (the reference is valid only while the entry stays resident).
  const Partitioning& get(const std::string& key, const Graph& graph,
                          std::uint32_t num_intervals,
                          const PartitionerSpec& spec = {}) {
    return *acquire(key, graph, num_intervals, spec);
  }

  // LRU cap on resident partitionings (0 = unbounded, the default).
  // Enforced after each build; in-flight builds may overshoot briefly.
  void set_max_entries(std::size_t n);
  std::size_t max_entries() const;
  // Partitionings currently resident.
  std::size_t resident() const;

  // Number of partitionings built so far (builds including rebuilds
  // after eviction, not hits).
  std::size_t builds() const { return builds_.load(); }
  // Number of partitionings evicted to satisfy the entry cap.
  std::size_t evictions() const { return evictions_.load(); }
  // Hit/build/eviction counts broken down by partitioner strategy.
  std::map<std::string, StrategyStats> strategy_stats() const;

 private:
  struct Entry {
    std::mutex build_mu;  // serialises (re)builds of this entry
    std::shared_ptr<const Partitioning> partitioning;
    std::string strategy;  // for eviction attribution
    std::uint64_t last_use = 0;
  };

  void evict_to_cap_locked(const Entry* keep);

  mutable std::mutex mu_;  // guards the map and LRU state, not builds
  std::map<std::tuple<std::string, std::string, std::uint32_t>,
           std::unique_ptr<Entry>>
      entries_;
  std::map<std::string, StrategyStats> strategy_stats_;  // under mu_
  std::uint64_t tick_ = 0;
  std::size_t max_entries_ = 0;
  std::size_t resident_ = 0;
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> evictions_{0};
};

// Key of a memoised functional outcome. Two sweep cells share an
// outcome exactly when their functional inputs agree: the graph image
// (a GraphCache key; hash-balanced images fold the seed in via
// GraphCache::balanced_key), the algorithm, the partitioner strategy
// (block iteration order steers in-pass propagation, so iteration
// counts differ across strategies), the interval count P, and the
// frontier mode. Memory technologies, power gating, data sharing and
// edge width never appear — they only affect accounting, so a sweep
// over memory configs hits this cache on every cell after the first.
struct FunctionalKey {
  std::string graph_key;
  std::string algorithm;
  std::string partitioner = "interval";  // PartitionerSpec::to_string
  std::uint32_t num_intervals = 0;       // P
  bool frontier = false;
  // Per-iteration pattern reuse (algos/frontier.hpp). Results and
  // reports are byte-identical either way (tested), but the cached
  // FrontierTrace carries the blocks/edges_skipped tallies of the mode
  // that built it — keying on the mode keeps the sim.kernel.* metrics
  // honest when one process mixes both.
  bool pattern_reuse = true;

  friend bool operator==(const FunctionalKey&,
                         const FunctionalKey&) = default;
  friend auto operator<=>(const FunctionalKey&,
                          const FunctionalKey&) = default;
};

// Memoised functional-phase outcomes (HyveMachine::run_functional_phase
// results), following the GraphCache concurrency scheme: entries are
// created under a short map lock and built under a per-entry mutex, so
// workers needing the same outcome share one build while different
// outcomes build in parallel. Entries live as long as the cache — each
// SweepEngine::run() owns one — and are small: a dense outcome is a few
// dozen bytes, a FrontierTrace ~iterations x active-block records.
class FunctionalCache {
 public:
  // The memoised outcome for `key`, built on first use via `build`.
  std::shared_ptr<const FunctionalOutcome> acquire(
      const FunctionalKey& key,
      const std::function<FunctionalOutcome()>& build);

  // Sum of the held outcomes' FunctionalOutcome::approx_bytes().
  std::size_t resident_bytes() const;
  std::size_t hits() const { return hits_.load(); }
  std::size_t misses() const { return misses_.load(); }

 private:
  struct Entry {
    std::mutex build_mu;  // serialises the build of this entry
    std::shared_ptr<const FunctionalOutcome> outcome;
  };

  mutable std::mutex mu_;  // guards the map and byte count, not builds
  std::map<FunctionalKey, std::unique_ptr<Entry>> entries_;
  std::size_t resident_bytes_ = 0;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace hyve::exp
