#include "exp/cache.hpp"

#include <fstream>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hyve::exp {

namespace {

// Heap footprint of an owned graph — what eviction can actually free.
std::size_t graph_bytes(const Graph& g) {
  return sizeof(Graph) + g.edges().capacity() * sizeof(Edge);
}

// Registry mirrors of the per-instance atomics (loads()/builds()/...):
// the instance counters stay authoritative for tests; these feed the
// process-wide `--metrics` dump.
void count(const std::string& name, std::uint64_t delta = 1) {
  if (obs::enabled()) obs::registry().counter(name).add(delta);
}

void gauge(const std::string& name, std::int64_t value) {
  if (obs::enabled()) obs::registry().gauge(name).set(value);
}

}  // namespace

GraphCache::GraphCache() {
  for (const DatasetId id : kAllDatasets) {
    auto entry = std::make_unique<Entry>();
    // Non-owning view into dataset_graph()'s process-wide store: nothing
    // for this cache to free, so the entry is exempt from the budget.
    entry->build = [id] {
      return std::shared_ptr<const Graph>(std::shared_ptr<void>(),
                                          &dataset_graph(id));
    };
    entry->evictable = false;
    base_.emplace(dataset_name(id), std::move(entry));
  }
}

void GraphCache::add_impl(
    const std::string& key,
    std::function<std::shared_ptr<const Graph>()> build, bool evictable) {
  const std::scoped_lock lock(mu_);
  auto entry = std::make_unique<Entry>();
  entry->build = std::move(build);
  entry->evictable = evictable;
  const bool inserted = base_.emplace(key, std::move(entry)).second;
  HYVE_CHECK_MSG(inserted, "graph key already registered: " << key);
}

void GraphCache::add(const std::string& key, std::function<Graph()> make) {
  add_impl(
      key,
      [make = std::move(make)] {
        return std::make_shared<const Graph>(make());
      },
      /*evictable=*/true);
}

void GraphCache::add(const std::string& key, Graph graph) {
  auto holder = std::make_shared<const Graph>(std::move(graph));
  // The holder is the only copy; evicting it would lose the graph for
  // good, so the entry is pinned.
  add_impl(key, [holder] { return holder; }, /*evictable=*/false);
}

bool GraphCache::contains(const std::string& key) const {
  const std::scoped_lock lock(mu_);
  return base_.count(key) > 0;
}

GraphCache::Entry& GraphCache::entry_for(const std::string& key) {
  const std::scoped_lock lock(mu_);
  const auto it = base_.find(key);
  HYVE_CHECK_MSG(it != base_.end(), "unknown graph key: " << key);
  return *it->second;
}

std::shared_ptr<const Graph> GraphCache::materialise(Entry& entry) {
  {
    const std::scoped_lock lock(mu_);
    if (entry.graph) {
      entry.last_use = ++tick_;
      count("exp.graph_cache.hits");
      return entry.graph;
    }
  }
  // Build outside mu_ so unrelated entries proceed in parallel; the
  // per-entry mutex makes concurrent requests share one build.
  const std::scoped_lock build_lock(entry.build_mu);
  {
    const std::scoped_lock lock(mu_);
    if (entry.graph) {
      entry.last_use = ++tick_;
      count("exp.graph_cache.hits");
      return entry.graph;
    }
  }
  std::shared_ptr<const Graph> built = entry.build();
  ++loads_;
  count("exp.graph_cache.loads");
  const std::scoped_lock lock(mu_);
  entry.graph = built;
  entry.bytes = entry.evictable ? graph_bytes(*built) : 0;
  entry.last_use = ++tick_;
  resident_bytes_ += entry.bytes;
  if (budget_bytes_ > 0) evict_to_budget_locked(&entry);
  gauge("exp.graph_cache.resident_bytes",
        static_cast<std::int64_t>(resident_bytes_));
  return built;
}

void GraphCache::evict_to_budget_locked(const Entry* keep) {
  while (resident_bytes_ + blocked_window_bytes_locked() > budget_bytes_) {
    Entry* victim = nullptr;
    for (const auto& [key, entry] : base_)
      if (entry->graph && entry->evictable && entry.get() != keep &&
          (victim == nullptr || entry->last_use < victim->last_use))
        victim = entry.get();
    for (const auto& [key, entry] : balanced_)
      if (entry->graph && entry->evictable && entry.get() != keep &&
          (victim == nullptr || entry->last_use < victim->last_use))
        victim = entry.get();
    if (victim == nullptr) break;  // everything left is pinned or in use
    victim->graph.reset();
    resident_bytes_ -= victim->bytes;
    victim->bytes = 0;
    ++evictions_;
    count("exp.graph_cache.evictions");
  }
  // Still over with no evictable graph left: drop blocked decode
  // windows, least recently acquired first (their blocks refault from
  // the mapped file on next use).
  while (resident_bytes_ + blocked_window_bytes_locked() > budget_bytes_) {
    BlockedEntry* victim = nullptr;
    for (auto& [key, entry] : blocked_)
      if (entry.reader && entry.reader->window_resident_bytes() > 0 &&
          (victim == nullptr || entry.last_use < victim->last_use))
        victim = &entry;
    if (victim == nullptr) return;
    victim->reader->release_window();
    ++evictions_;
    count("exp.graph_cache.evictions");
  }
}

std::size_t GraphCache::blocked_window_bytes_locked() const {
  std::size_t bytes = 0;
  for (const auto& [key, entry] : blocked_)
    if (entry.reader) bytes += entry.reader->window_resident_bytes();
  return bytes;
}

void GraphCache::add_blocked(const std::string& key,
                             const std::string& path) {
  {
    const std::scoped_lock lock(mu_);
    const bool inserted = blocked_.emplace(key, BlockedEntry{path, nullptr, 0})
                              .second;
    HYVE_CHECK_MSG(inserted, "blocked graph key already registered: " << key);
  }
  // The materialised view registers like any generated graph: evictable,
  // rebuilt from the file (through the bounded window) after eviction.
  add_impl(
      key,
      [this, key] {
        return std::make_shared<const Graph>(materialize(*acquire_blocked(key)));
      },
      /*evictable=*/true);
}

std::shared_ptr<BlockedGraphReader> GraphCache::acquire_blocked(
    const std::string& key) {
  const std::scoped_lock lock(mu_);
  const auto it = blocked_.find(key);
  HYVE_CHECK_MSG(it != blocked_.end(), "unknown blocked graph key: " << key);
  BlockedEntry& entry = it->second;
  if (!entry.reader) {
    BlockedReaderOptions options;
    options.window_bytes = ooc_window_budget_;
    entry.reader = std::make_shared<BlockedGraphReader>(entry.path, options);
  }
  entry.last_use = ++tick_;
  return entry.reader;
}

void GraphCache::set_ooc_window_budget(std::size_t bytes) {
  const std::scoped_lock lock(mu_);
  ooc_window_budget_ = bytes;
  for (auto& [key, entry] : blocked_)
    if (entry.reader) entry.reader->set_window_budget(bytes);
}

std::size_t GraphCache::ooc_window_budget() const {
  const std::scoped_lock lock(mu_);
  return ooc_window_budget_;
}

std::shared_ptr<const Graph> GraphCache::acquire(const std::string& key) {
  return materialise(entry_for(key));
}

std::shared_ptr<const Graph> GraphCache::acquire_balanced(
    const std::string& key, std::uint64_t seed) {
  Entry* entry;
  {
    const std::scoped_lock lock(mu_);
    auto& slot = balanced_[{key, seed}];
    if (!slot) {
      slot = std::make_unique<Entry>();
      // Re-acquire the base graph inside the build so a rebuild after
      // eviction restores the source first (and holds it alive). The
      // per-graph remap memo makes a rebuild of a recently-evicted
      // image cheap and shares it with direct HyveMachine::run callers.
      slot->build = [this, key, seed] {
        const std::shared_ptr<const Graph> source = acquire(key);
        return source->hashed_remap_shared(seed);
      };
    }
    entry = slot.get();
  }
  return materialise(*entry);
}

void GraphCache::set_byte_budget(std::size_t bytes) {
  const std::scoped_lock lock(mu_);
  budget_bytes_ = bytes;
  gauge("exp.graph_cache.byte_budget",
        static_cast<std::int64_t>(budget_bytes_));
  if (budget_bytes_ > 0) evict_to_budget_locked(nullptr);
}

std::size_t GraphCache::byte_budget() const {
  const std::scoped_lock lock(mu_);
  return budget_bytes_;
}

std::size_t GraphCache::resident_bytes() const {
  const std::scoped_lock lock(mu_);
  return resident_bytes_ + blocked_window_bytes_locked();
}

std::size_t default_graph_cache_budget(bool smoke) {
  if (smoke) return std::size_t{256} << 20;
  std::ifstream meminfo("/proc/meminfo");
  std::string key;
  std::uint64_t kib = 0;
  std::string unit;
  while (meminfo >> key >> kib >> unit)
    if (key == "MemAvailable:")
      return static_cast<std::size_t>(kib) * 1024 / 4;
  return 0;  // no MemAvailable (non-Linux): keep the unbounded default
}

std::shared_ptr<const Partitioning> PartitionCache::acquire(
    const std::string& key, const Graph& graph, std::uint32_t num_intervals,
    const PartitionerSpec& spec) {
  const std::string strategy = spec.to_string();
  Entry* entry;
  {
    const std::scoped_lock lock(mu_);
    auto& slot = entries_[{key, strategy, num_intervals}];
    if (!slot) {
      slot = std::make_unique<Entry>();
      slot->strategy = strategy;
    }
    entry = slot.get();
    if (entry->partitioning) {
      entry->last_use = ++tick_;
      const std::shared_ptr<const Partitioning> p = entry->partitioning;
      HYVE_CHECK_MSG(
          p->num_vertices() == graph.num_vertices() &&
              p->num_edges() == graph.num_edges(),
          "partition cache key \"" << key
                                   << "\" reused for a different graph");
      ++strategy_stats_[strategy].hits;
      count("exp.partition_cache.hits");
      count("exp.partition_cache.hits." + strategy);
      return p;
    }
  }
  const std::scoped_lock build_lock(entry->build_mu);
  {
    const std::scoped_lock lock(mu_);
    if (entry->partitioning) {
      entry->last_use = ++tick_;
      ++strategy_stats_[strategy].hits;
      count("exp.partition_cache.hits");
      count("exp.partition_cache.hits." + strategy);
      return entry->partitioning;
    }
  }
  auto built = std::make_shared<const Partitioning>(
      make_partitioner(spec)->partition(graph, num_intervals));
  ++builds_;
  count("exp.partition_cache.builds");
  count("exp.partition_cache.builds." + strategy);
  const std::scoped_lock lock(mu_);
  ++strategy_stats_[strategy].builds;
  entry->partitioning = built;
  entry->last_use = ++tick_;
  ++resident_;
  if (max_entries_ > 0) evict_to_cap_locked(entry);
  gauge("exp.partition_cache.resident",
        static_cast<std::int64_t>(resident_));
  return built;
}

void PartitionCache::evict_to_cap_locked(const Entry* keep) {
  while (resident_ > max_entries_) {
    Entry* victim = nullptr;
    for (const auto& [key, entry] : entries_)
      if (entry->partitioning && entry.get() != keep &&
          (victim == nullptr || entry->last_use < victim->last_use))
        victim = entry.get();
    if (victim == nullptr) return;
    victim->partitioning.reset();
    --resident_;
    ++evictions_;
    ++strategy_stats_[victim->strategy].evictions;
    count("exp.partition_cache.evictions");
    count("exp.partition_cache.evictions." + victim->strategy);
  }
}

std::map<std::string, PartitionCache::StrategyStats>
PartitionCache::strategy_stats() const {
  const std::scoped_lock lock(mu_);
  return strategy_stats_;
}

void PartitionCache::set_max_entries(std::size_t n) {
  const std::scoped_lock lock(mu_);
  max_entries_ = n;
  if (max_entries_ > 0) evict_to_cap_locked(nullptr);
}

std::size_t PartitionCache::max_entries() const {
  const std::scoped_lock lock(mu_);
  return max_entries_;
}

std::size_t PartitionCache::resident() const {
  const std::scoped_lock lock(mu_);
  return resident_;
}

std::shared_ptr<const FunctionalOutcome> FunctionalCache::acquire(
    const FunctionalKey& key,
    const std::function<FunctionalOutcome()>& build) {
  Entry* entry;
  {
    const std::scoped_lock lock(mu_);
    auto& slot = entries_[key];
    if (!slot) slot = std::make_unique<Entry>();
    entry = slot.get();
    if (entry->outcome) {
      ++hits_;
      count("exp.functional_cache.hits");
      return entry->outcome;
    }
  }
  // Build outside mu_ so unrelated outcomes proceed in parallel; the
  // per-entry mutex makes concurrent requests share one build.
  const std::scoped_lock build_lock(entry->build_mu);
  {
    const std::scoped_lock lock(mu_);
    if (entry->outcome) {
      ++hits_;
      count("exp.functional_cache.hits");
      return entry->outcome;
    }
  }
  auto built = std::make_shared<const FunctionalOutcome>(build());
  ++misses_;
  count("exp.functional_cache.misses");
  const std::scoped_lock lock(mu_);
  entry->outcome = built;
  resident_bytes_ += built->approx_bytes();
  gauge("exp.functional_cache.bytes",
        static_cast<std::int64_t>(resident_bytes_));
  return built;
}

std::size_t FunctionalCache::resident_bytes() const {
  const std::scoped_lock lock(mu_);
  return resident_bytes_;
}

}  // namespace hyve::exp
