// Build-once memoisation: the one mechanism behind the sweep caches
// (src/exp/cache.hpp).
//
// A sweep over memory configurations x algorithms x datasets needs the
// same few derived artifacts in every cell: graphs, interval-block
// partitionings (the §4.3 hash balancing fused into their build) and
// functional outcomes.
// Memo<Key, Value> builds each one once and hands it out as
// shared_ptr<const Value>:
//
//   * Entries are created under a short map lock and built under a
//     per-entry lock, outside the map lock, so concurrent acquirers of
//     one key share one build while different keys build in parallel.
//   * An optional LRU budget runs over a per-entry cost (bytes, or 1 per
//     entry for an entry cap). Pinned entries cost nothing and are never
//     evicted, and the entry just built is never evicted on its own
//     behalf. Evicting only drops the memo's reference: a value still in
//     use lives until its last holder lets go. An evicted key is rebuilt
//     on its next acquire, so builds must be deterministic.
//   * Hits, builds and evictions are counted per memo and mirrored into
//     the obs registry as <prefix>.hits / .builds / .evictions, with the
//     resident cost as the <prefix>.<resident_gauge> gauge. An optional
//     tag function also attributes them per tag (<prefix>.<event>.<tag>).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/registry.hpp"

namespace hyve::exp {

struct MemoStats {
  std::size_t hits = 0;
  std::size_t builds = 0;
  std::size_t evictions = 0;  // entries dropped to meet the budget
};

template <typename Key, typename Value>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  struct Config {
    std::string prefix;  // registry name prefix, e.g. "exp.graph_cache"
    std::string resident_gauge = "resident";
    // Budget units a resident value costs; unset means 1 per entry.
    std::function<std::size_t(const Value&)> cost = {};
    // Attribution of the counters by tag, computed once per key; unset
    // means none.
    std::function<std::string(const Key&)> tag = {};
  };

  explicit Memo(Config config) : config_(std::move(config)) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  // The value for `key`, built by `build()` on first use and after an
  // eviction. `build` returns a Value or a Ptr.
  template <typename Build>
  Ptr acquire(const Key& key, Build&& build, bool pinned = false) {
    Entry* entry;
    {
      const std::scoped_lock lock(mu_);
      std::unique_ptr<Entry>& slot = entries_[key];
      if (!slot) {
        slot = std::make_unique<Entry>();
        if (config_.tag) slot->tag = config_.tag(key);
      }
      entry = slot.get();
      if (entry->value) return hit_locked(*entry);
    }
    const std::scoped_lock build_lock(entry->build_mu);
    {
      const std::scoped_lock lock(mu_);
      if (entry->value) return hit_locked(*entry);
    }
    Ptr built;
    if constexpr (std::is_convertible_v<std::invoke_result_t<Build&>, Ptr>)
      built = build();
    else
      built = std::make_shared<const Value>(build());
    const std::size_t cost =
        pinned ? 0 : config_.cost ? config_.cost(*built) : 1;
    const std::scoped_lock lock(mu_);
    count_locked(entry->tag, &MemoStats::builds, "builds");
    entry->value = built;
    entry->pinned = pinned;
    entry->cost = cost;
    entry->last_use = ++tick_;
    resident_ += cost;
    evict_locked(entry);
    return built;
  }

  // LRU budget over resident cost (0 = unbounded, the default).
  void set_budget(std::size_t budget) {
    const std::scoped_lock lock(mu_);
    budget_ = budget;
    evict_locked(nullptr);
  }
  std::size_t budget() const {
    const std::scoped_lock lock(mu_);
    return budget_;
  }
  // Summed cost of the resident entries.
  std::size_t resident() const {
    const std::scoped_lock lock(mu_);
    return resident_;
  }

  MemoStats stats() const {
    const std::scoped_lock lock(mu_);
    return stats_;
  }
  std::size_t hits() const { return stats().hits; }
  std::size_t builds() const { return stats().builds; }
  std::size_t evictions() const { return stats().evictions; }
  std::map<std::string, MemoStats> tag_stats() const {
    const std::scoped_lock lock(mu_);
    return tag_stats_;
  }

 private:
  struct Entry {
    std::mutex build_mu;  // serialises (re)builds of this entry
    std::string tag;      // config_.tag(key), or empty
    Ptr value;            // null until built and after eviction
    bool pinned = false;
    std::size_t cost = 0;
    std::uint64_t last_use = 0;
  };

  Ptr hit_locked(Entry& entry) {
    entry.last_use = ++tick_;
    count_locked(entry.tag, &MemoStats::hits, "hits");
    return entry.value;
  }

  void count_locked(const std::string& tag, std::size_t MemoStats::*field,
                    const char* event) {
    ++(stats_.*field);
    if (!tag.empty()) ++(tag_stats_[tag].*field);
    if (!obs::enabled()) return;
    const std::string name = config_.prefix + "." + event;
    obs::registry().counter(name).add();
    if (!tag.empty()) obs::registry().counter(name + "." + tag).add();
  }

  // Evicts least-recently-used entries other than `keep` and the pinned
  // ones until the budget holds, then refreshes the resident gauge.
  void evict_locked(const Entry* keep) {
    while (budget_ > 0 && resident_ > budget_) {
      Entry* victim = nullptr;
      for (const auto& [key, entry] : entries_)
        if (entry->value && !entry->pinned && entry.get() != keep &&
            (victim == nullptr || entry->last_use < victim->last_use))
          victim = entry.get();
      if (victim == nullptr) break;  // everything left is pinned or kept
      victim->value.reset();
      resident_ -= victim->cost;
      victim->cost = 0;
      count_locked(victim->tag, &MemoStats::evictions, "evictions");
    }
    if (obs::enabled())
      obs::registry()
          .gauge(config_.prefix + "." + config_.resident_gauge)
          .set(static_cast<std::int64_t>(resident_));
  }

  const Config config_;
  mutable std::mutex mu_;  // guards everything below, never held in builds
  std::map<Key, std::unique_ptr<Entry>> entries_;
  std::uint64_t tick_ = 0;  // LRU clock
  std::size_t budget_ = 0;
  std::size_t resident_ = 0;
  MemoStats stats_;
  std::map<std::string, MemoStats> tag_stats_;
};

}  // namespace hyve::exp
