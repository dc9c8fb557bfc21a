#include "exp/cache.hpp"

#include <ostream>

#include "util/check.hpp"

namespace hyve::exp {

GraphCache::GraphCache()
    : memo_({.prefix = "exp.graph_cache",
             .resident_gauge = "resident_bytes",
             // Heap footprint of an owned graph.
             .cost =
                 [](const Graph& g) {
                   return sizeof(Graph) + g.edges().capacity() * sizeof(Edge);
                 }}) {
  for (const DatasetId id : kAllDatasets) {
    // Non-owning view into dataset_graph()'s process-wide store: nothing
    // for this cache to free, so the entry is pinned.
    add_source(dataset_name(id),
               {[id] {
                  return std::shared_ptr<const Graph>(std::shared_ptr<void>(),
                                                      &dataset_graph(id));
                },
                /*pinned=*/true});
  }
}

void GraphCache::add_source(const std::string& key, Source source) {
  const std::scoped_lock lock(mu_);
  const bool inserted = sources_.emplace(key, std::move(source)).second;
  HYVE_CHECK_MSG(inserted, "graph key already registered: " << key);
}

void GraphCache::add(const std::string& key, std::function<Graph()> make) {
  add_source(key, {[make = std::move(make)] {
                     return std::make_shared<const Graph>(make());
                   },
                   /*pinned=*/false});
}

void GraphCache::add(const std::string& key, Graph graph) {
  auto holder = std::make_shared<const Graph>(std::move(graph));
  // The holder is the only copy; evicting it would lose the graph for
  // good, so the entry is pinned.
  add_source(key, {[holder] { return holder; }, /*pinned=*/true});
}

bool GraphCache::contains(const std::string& key) const {
  const std::scoped_lock lock(mu_);
  return sources_.count(key) > 0;
}

std::shared_ptr<const Graph> GraphCache::acquire(const std::string& key) {
  const Source* source;
  {
    const std::scoped_lock lock(mu_);
    const auto it = sources_.find(key);
    HYVE_CHECK_MSG(it != sources_.end(), "unknown graph key: " << key);
    source = &it->second;
  }
  return memo_.acquire(key, source->build, source->pinned);
}

std::shared_ptr<const Graph> GraphCache::acquire_balanced(
    const std::string& key, std::uint64_t seed) {
  return memo_.acquire(balanced_key(key, seed), [&] {
    return acquire(key)->hashed_remap(seed);
  });
}

PartitionCache::PartitionCache()
    : memo_({.prefix = "exp.partition_cache",
             .tag = [](const auto& key) { return std::get<1>(key); }}) {}

std::shared_ptr<const Partitioning> PartitionCache::acquire(
    const std::string& key, const Graph& graph, std::uint32_t num_intervals,
    const PartitionerSpec& spec, std::optional<std::uint64_t> balance_seed) {
  const std::string image_key =
      balance_seed ? GraphCache::balanced_key(key, *balance_seed) : key;
  const std::shared_ptr<const Partitioning> p =
      memo_.acquire({image_key, spec.to_string(), num_intervals}, [&] {
        std::vector<VertexId> perm;
        if (balance_seed)
          perm = hash_permutation(graph.num_vertices(), *balance_seed);
        return make_partitioner(spec)->partition(graph, num_intervals, perm);
      });
  HYVE_CHECK_MSG(p->num_vertices() == graph.num_vertices() &&
                     p->num_edges() == graph.num_edges(),
                 "partition cache key \"" << key
                                          << "\" reused for a different graph");
  return p;
}

FunctionalCache::FunctionalCache()
    : Memo({.prefix = "exp.functional_cache",
            .resident_gauge = "bytes",
            .cost = [](const FunctionalOutcome& outcome) {
              return outcome.approx_bytes();
            }}) {}

void print_cache_stats(std::ostream& os, const GraphCache& graphs,
                       const PartitionCache& partitions,
                       const FunctionalCache& functional) {
  const auto counts = [&os](const MemoStats& s) -> std::ostream& {
    return os << "hits=" << s.hits << " builds=" << s.builds
              << " evictions=" << s.evictions;
  };
  os << "graph cache: ";
  counts(graphs.stats()) << " resident_bytes=" << graphs.resident_bytes()
                         << "\n";
  os << "partition cache: ";
  counts(partitions.stats()) << " resident=" << partitions.resident() << "\n";
  for (const auto& [strategy, stats] : partitions.strategy_stats()) {
    os << "partition cache[" << strategy << "]: ";
    counts(stats) << "\n";
  }
  os << "functional cache: ";
  counts(functional.stats()) << "\n";
}

}  // namespace hyve::exp
