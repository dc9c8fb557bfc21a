// Open-addressing hash table from 64-bit keys to 32-bit values, private to
// the dynamic store (it is not part of the store's API). The store uses
// two of them: the edge locator, a multiset from packed edge to the
// edge's slot in its block (parallel edges give duplicate keys), and the
// GraphR layout's block directory, from block key to block index.
//
// Keys and values sit in two flat arrays probed linearly from the key's
// home bucket. Erasing closes the hole by backward shift (later entries of
// the same run move back when the hole lies on their probe path), so there
// are no tombstones and churn never lengthens probes. Duplicate keys are
// allowed: insert never looks for an existing entry, and lookups return
// the first match along the run.
//
// Bulk loading: insert_all and find_or_insert_all take a whole batch and
// overlap its cache misses by hinting each key's home bucket a few keys
// ahead. Each key then takes the same insert step as a per-key call, in
// batch order, so a batch leaves the table bucket for bucket as a loop
// of per-key calls would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/check.hpp"

namespace hyve {

class FlatTable {
 public:
  // Marks a free bucket. No packed edge takes this value: vertex ids stay
  // below 2^32 - 1.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  // Room for `expected` entries before the table first grows. The table
  // is at most two thirds full, so every probe run ends at a free bucket.
  explicit FlatTable(std::size_t expected = 0)
      : keys_(expected + expected / 2 + 8, kEmptyKey),
        values_(keys_.size()),
        limit_(keys_.size() / 3 * 2) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return keys_.size(); }

  // How many keys ahead the bulk loops, and the store's request loop,
  // hint a home bucket into cache.
  static constexpr std::size_t kPrefetchDistance = 16;

  // The bucket a key's probe run starts from.
  std::size_t home(std::uint64_t key) const { return buckets().home(key); }

  // Hints key's home bucket into cache ahead of a probe. Always inlined:
  // GCC counts a prefetch as free of side effects, so it deletes every
  // call to an out-of-line function that does nothing else.
  [[gnu::always_inline]] void prefetch(std::uint64_t key) const {
    buckets().prefetch(key);
  }

  // Adds the entry; entries already holding `key` stay.
  void insert(std::uint64_t key, std::uint32_t value) {
    Buckets b = buckets();
    insert(b, key, value);
  }

  // The value of an entry with `key` when there is one; otherwise adds
  // (key, value) and returns `value`.
  std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t value) {
    Buckets b = buckets();
    return find_or_insert(b, key, value);
  }

  // insert(key_at(i), value_at(i)) for i = 0 .. n-1, in that order.
  template <typename KeyAt, typename ValueAt>
  void insert_all(std::size_t n, KeyAt key_at, ValueAt value_at) {
    Buckets b = buckets();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) b.prefetch(key_at(i + kPrefetchDistance));
      insert(b, key_at(i), value_at(i));
    }
  }

  // out[i] = find_or_insert(key_at(i), size()) for i = 0 .. n-1, in that
  // order: a new key's value counts the distinct keys before it, so the
  // values number the keys in first-touch order. Throws once the table
  // holds 2^32 - 1 keys, when size() no longer fits a value.
  template <typename KeyAt>
  void find_or_insert_all(std::size_t n, KeyAt key_at, std::uint32_t* out) {
    Buckets b = buckets();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) b.prefetch(key_at(i + kPrefetchDistance));
      HYVE_CHECK(size_ < std::numeric_limits<std::uint32_t>::max());
      out[i] = find_or_insert(b, key_at(i), static_cast<std::uint32_t>(size_));
    }
  }

  // The value of the entry (key, value) itself, for rewriting it in
  // place; nullptr when there is no such entry.
  std::uint32_t* find(std::uint64_t key, std::uint32_t value) {
    const std::size_t i =
        buckets().locate(key, [value](std::uint32_t v) { return v == value; });
    return keys_[i] == kEmptyKey ? nullptr : &values_[i];
  }

  // Removes one entry with `key` and returns its value.
  std::optional<std::uint32_t> erase(std::uint64_t key) {
    const std::size_t i =
        buckets().locate(key, [](std::uint32_t) { return true; });
    if (keys_[i] == kEmptyKey) return std::nullopt;
    const std::uint32_t value = values_[i];
    erase_at(i);
    return value;
  }

  // Removes the entry (key, value); false when there is none.
  bool erase(std::uint64_t key, std::uint32_t value) {
    const std::size_t i =
        buckets().locate(key, [value](std::uint32_t v) { return v == value; });
    if (keys_[i] == kEmptyKey) return false;
    erase_at(i);
    return true;
  }

  // Bucket for bucket: the same capacity, and the same entry in every
  // occupied bucket. A free bucket may keep the value of an erased entry;
  // that value does not count.
  bool operator==(const FlatTable& other) const;

 private:
  // The bucket arrays and capacity as plain values. Every probe runs
  // through this view, and the bulk loops keep it in registers: read
  // through the vectors, the arrays would be reloaded every iteration,
  // because the loops may call grow().
  struct Buckets {
    std::uint64_t* keys;
    std::uint32_t* values;
    std::size_t capacity;

    std::size_t home(std::uint64_t key) const {
      // fmix64 from MurmurHash3, then Lemire's multiply-shift range
      // reduction onto any capacity.
      key ^= key >> 33;
      key *= 0xFF51AFD7ED558CCDULL;
      key ^= key >> 33;
      key *= 0xC4CEB9FE1A85EC53ULL;
      key ^= key >> 33;
      return static_cast<std::size_t>(
          (static_cast<unsigned __int128>(key) * capacity) >> 64);
    }

    std::size_t next(std::size_t i) const {
      return i + 1 == capacity ? 0 : i + 1;
    }

    // Buckets from `from` forward to `to`, wrapping past the end.
    std::size_t distance(std::size_t from, std::size_t to) const {
      return to >= from ? to - from : to + capacity - from;
    }

    [[gnu::always_inline]] void prefetch(std::uint64_t key) const {
      const std::size_t i = home(key);
      __builtin_prefetch(keys + i);
      __builtin_prefetch(values + i);
    }

    // The first bucket of key's run holding `key` with a value `accept`s,
    // or the free bucket that ends the run.
    template <typename Accept>
    std::size_t locate(std::uint64_t key, Accept accept) const {
      std::size_t i = home(key);
      while (keys[i] != kEmptyKey && !(keys[i] == key && accept(values[i])))
        i = next(i);
      return i;
    }
  };

  // The view of this table. Its pointers are mutable so that one type
  // serves every member; const members only read through them.
  Buckets buckets() const {
    return {const_cast<std::uint64_t*>(keys_.data()),
            const_cast<std::uint32_t*>(values_.data()), keys_.size()};
  }

  // The steps behind the per-key calls and the bulk loops. Growing
  // re-points `b` at the new arrays.
  [[gnu::always_inline]] void insert(Buckets& b, std::uint64_t key,
                                     std::uint32_t value) {
    HYVE_CHECK(key != kEmptyKey);
    if (size_ == limit_) {
      grow();
      b = buckets();
    }
    std::size_t i = b.home(key);
    while (b.keys[i] != kEmptyKey) i = b.next(i);
    b.keys[i] = key;
    b.values[i] = value;
    ++size_;
  }

  [[gnu::always_inline]] std::uint32_t find_or_insert(Buckets& b,
                                                      std::uint64_t key,
                                                      std::uint32_t value) {
    HYVE_CHECK(key != kEmptyKey);
    if (size_ == limit_) {
      grow();
      b = buckets();
    }
    const std::size_t i = b.locate(key, [](std::uint32_t) { return true; });
    if (b.keys[i] == kEmptyKey) {
      b.keys[i] = key;
      b.values[i] = value;
      ++size_;
    }
    return b.values[i];
  }

  // Empties bucket `hole`, then walks the rest of its run and moves back
  // every entry whose probe path crosses the hole (its home does not lie
  // strictly between the hole and the entry).
  void erase_at(std::size_t hole) {
    const Buckets b = buckets();
    for (std::size_t i = b.next(hole); b.keys[i] != kEmptyKey; i = b.next(i)) {
      if (b.distance(b.home(b.keys[i]), i) >= b.distance(hole, i)) {
        b.keys[hole] = b.keys[i];
        b.values[hole] = b.values[i];
        hole = i;
      }
    }
    b.keys[hole] = kEmptyKey;
    --size_;
  }

  // Rehashes into twice the capacity (out of line: inserts stay small
  // enough to inline).
  void grow();

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t limit_ = 0;  // entries allowed before grow()
  std::size_t size_ = 0;
};

}  // namespace hyve
