// Memoising graph, partition and functional caches for the sweep engine
// (src/exp).
//
// A (config × algorithm × dataset) sweep re-uses the same few graphs in
// every cell; without these caches each cell would re-load the graph,
// re-run the counting-sort partitioner (which applies the §4.3
// hash-balancing permutation as it reads the edges, so a sweep holds one
// edge image per graph: the base graph) and re-run the vertex program.
// Each cache is a thin layer over one exp::Memo (memo.hpp), which owns
// the build-once, per-entry locking, LRU eviction and counters: two
// workers needing the same artifact share one build while workers
// needing different ones proceed in parallel, and evicting an entry
// another worker still uses only drops the cache's reference.
//
// All three count hits, builds and evictions (exp.<cache>.* in the
// registry) plus one resident gauge each. PartitionCache takes an
// optional entry cap; the graph and functional caches are unbounded and
// live as long as their owners.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "core/machine.hpp"
#include "exp/memo.hpp"
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

  // Registers a lazily-built graph under `key` (throws if taken), built
  // once on first use.
  void add(const std::string& key, std::function<Graph()> make);
  // Registers an already-built graph. The cache pins it (it owns the only
  // copy), so resident_bytes() does not count it.
  void add(const std::string& key, Graph graph);

  bool contains(const std::string& key) const;

  // The registered graph, built on first use.
  std::shared_ptr<const Graph> acquire(const std::string& key);

  // The hashed_remap(seed) image of `key` (§4.3 balancing), memoised
  // under balanced_key(key, seed). Sweeps never build it (PartitionCache
  // applies the permutation inside the schedule build); it stays as the
  // reference path of perfbench's traced reps and the equivalence tests.
  std::shared_ptr<const Graph> acquire_balanced(const std::string& key,
                                                std::uint64_t seed);

  // Reference-returning convenience; valid as long as the cache lives
  // (no graph entry is ever evicted).
  const Graph& base(const std::string& key) { return *acquire(key); }

  // Key of the hash-balanced image of `key`: what PartitionCache and
  // FunctionalKey file balanced schedules and outcomes under.
  static std::string balanced_key(const std::string& key,
                                  std::uint64_t seed) {
    return key + "#balanced:" + std::to_string(seed);
  }

  // Bytes of owned, unpinned graphs currently resident (lazily built
  // entries and acquire_balanced images).
  std::size_t resident_bytes() const { return memo_.resident(); }

  MemoStats stats() const { return memo_.stats(); }
  // Graphs materialised so far, rebuilds after eviction included.
  std::size_t builds() const { return memo_.builds(); }
  std::size_t evictions() const { return memo_.evictions(); }

 private:
  struct Source {
    std::function<std::shared_ptr<const Graph>()> build;
    bool pinned = false;
  };

  void add_source(const std::string& key, Source source);

  // Guards sources_. Never held while calling into memo_.
  mutable std::mutex mu_;
  std::map<std::string, Source> sources_;  // never erased: nodes are stable
  Memo<std::string, Graph> memo_;
};

// Partitionings keyed by (graph image key, partitioner strategy, P), so
// two strategies over the same graph can never collide. The caller
// guarantees `key` uniquely identifies the graph's edge layout — use
// GraphCache keys. Every acquire checks that the cached partitioning has
// the graph's vertex and edge counts.
class PartitionCache {
 public:
  PartitionCache();

  // The memoised partitioning of `graph` under `spec` (default: the
  // interval-block strategy), built on first use. The shared_ptr stays
  // valid across a concurrent eviction under an entry cap. With a
  // `balance_seed` the build renumbers the vertices through
  // hash_permutation(V, seed) as it reads `graph` (§4.3), and the entry
  // is filed under GraphCache::balanced_key(key, seed): it equals the
  // schedule of graph.hashed_remap(seed), which is never built.
  std::shared_ptr<const Partitioning> acquire(
      const std::string& key, const Graph& graph, std::uint32_t num_intervals,
      const PartitionerSpec& spec = {},
      std::optional<std::uint64_t> balance_seed = std::nullopt);

  // LRU cap on resident partitionings (0 = unbounded, the default).
  // Enforced after each build; in-flight builds may overshoot briefly.
  void set_max_entries(std::size_t n) { memo_.set_budget(n); }
  std::size_t max_entries() const { return memo_.budget(); }
  // Partitionings currently resident.
  std::size_t resident() const { return memo_.resident(); }

  MemoStats stats() const { return memo_.stats(); }
  // Partitionings built so far, rebuilds after eviction included.
  std::size_t builds() const { return memo_.builds(); }
  std::size_t evictions() const { return memo_.evictions(); }
  // The same counts broken down by partitioner strategy
  // (PartitionerSpec::to_string).
  std::map<std::string, MemoStats> strategy_stats() const {
    return memo_.tag_stats();
  }

 private:
  Memo<std::tuple<std::string, std::string, std::uint32_t>, Partitioning>
      memo_;
};

// Key of a memoised functional outcome. Two sweep cells share an
// outcome exactly when their functional inputs agree: the graph image
// (a GraphCache key; hash-balanced schedules fold the seed in via
// GraphCache::balanced_key), the algorithm, the partitioner strategy
// (block iteration order steers in-pass propagation, so iteration
// counts differ across strategies), the interval count P, and whether
// the frontier walk runs. Memory technologies, power gating, data
// sharing and edge width never appear — they only affect accounting, so
// a sweep over memory configs hits this cache on every cell after the
// first.
struct FunctionalKey {
  std::string graph_key;
  std::string algorithm;
  std::string partitioner = "interval";  // PartitionerSpec::to_string
  std::uint32_t num_intervals = 0;       // P
  // Frontier mode, for programs the walk can narrow
  // (frontier_tracks_activity). PageRank, SpMV and apply-phase GAS
  // programs run the same dense passes in both modes, so both share the
  // dense entry (false) and run_cached attaches the full-pass trace to
  // a frontier cell's copy.
  bool frontier = false;

  friend bool operator==(const FunctionalKey&,
                         const FunctionalKey&) = default;
  friend auto operator<=>(const FunctionalKey&,
                          const FunctionalKey&) = default;
};

// Memoised functional-phase outcomes (HyveMachine::run_functional_phase
// results), unbounded. Its resident cost is the outcomes'
// FunctionalOutcome::approx_bytes(): a dense outcome is a few dozen
// bytes, a FrontierTrace ~iterations x active-block records.
class FunctionalCache : public Memo<FunctionalKey, FunctionalOutcome> {
 public:
  FunctionalCache();
};

// The --cache-stats report: one line per cache plus the per-strategy
// partition breakdown.
void print_cache_stats(std::ostream& os, const GraphCache& graphs,
                       const PartitionCache& partitions,
                       const FunctionalCache& functional);

}  // namespace hyve::exp
