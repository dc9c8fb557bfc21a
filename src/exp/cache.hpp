// Memoising graph, partition and functional caches for the sweep engine
// (src/exp).
//
// A (config × algorithm × dataset) sweep re-uses the same few graphs in
// every cell; without these caches each cell would re-load the graph,
// re-apply the §4.3 hash-balancing remap, re-run the counting-sort
// partitioner and re-run the vertex program. Each cache is a thin layer
// over one exp::Memo (memo.hpp), which owns the build-once, per-entry
// locking, LRU eviction and counters: two workers needing the same
// artifact share one build while workers needing different ones proceed
// in parallel, and evicting an entry another worker still uses only
// drops the cache's reference.
//
// All three count hits, builds and evictions (exp.<cache>.* in the
// registry) plus one resident gauge each. GraphCache takes an optional
// byte budget and PartitionCache an optional entry cap; the functional
// cache is unbounded and lives as long as the SweepEngine that holds it.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
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

  // Registers a lazily-built graph under `key` (throws if taken). `make`
  // must be deterministic: under a byte budget the entry may be evicted
  // and rebuilt by a later request.
  void add(const std::string& key, std::function<Graph()> make);
  // Registers an already-built graph. The cache pins it (it owns the only
  // copy and cannot rebuild it), so it is exempt from eviction.
  void add(const std::string& key, Graph graph);

  bool contains(const std::string& key) const;

  // The registered graph, built on first use. The shared_ptr keeps the
  // graph alive across a concurrent eviction — under a byte budget,
  // prefer it over the reference-returning base() below.
  std::shared_ptr<const Graph> acquire(const std::string& key);

  // The hashed_remap(seed) image of `key` (§4.3 balancing), memoised
  // under balanced_key(key, seed) — one remap per sweep instead of one
  // per cell.
  std::shared_ptr<const Graph> acquire_balanced(const std::string& key,
                                                std::uint64_t seed);

  // Reference-returning convenience for callers that set no byte budget
  // (the reference is valid only while the entry stays resident).
  const Graph& base(const std::string& key) { return *acquire(key); }

  // Cache key of the balanced image, also used by PartitionCache.
  static std::string balanced_key(const std::string& key,
                                  std::uint64_t seed) {
    return key + "#balanced:" + std::to_string(seed);
  }

  // LRU byte budget over owned graphs (0 = unbounded, the default).
  // Dataset-backed and pinned entries are exempt; everything else is
  // evicted least-recently-used first until the budget holds.
  void set_byte_budget(std::size_t bytes) { memo_.set_budget(bytes); }
  std::size_t byte_budget() const { return memo_.budget(); }
  // Bytes of owned graphs currently resident.
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
// Every acquire checks that the cached partitioning has the graph's
// vertex and edge counts.
class PartitionCache {
 public:
  PartitionCache();

  // The memoised partitioning of `graph` under `spec` (default: the
  // interval-block strategy), built on first use. The shared_ptr stays
  // valid across a concurrent eviction.
  std::shared_ptr<const Partitioning> acquire(
      const std::string& key, const Graph& graph, std::uint32_t num_intervals,
      const PartitionerSpec& spec = {});

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
// (a GraphCache key; hash-balanced images fold the seed in via
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
