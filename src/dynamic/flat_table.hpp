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
#pragma once

#include <cstddef>
#include <cstdint>
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

  // The bucket a key's probe run starts from.
  std::size_t home(std::uint64_t key) const {
    // fmix64 from MurmurHash3, then Lemire's multiply-shift range
    // reduction onto any capacity.
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDULL;
    key ^= key >> 33;
    key *= 0xC4CEB9FE1A85EC53ULL;
    key ^= key >> 33;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(key) * keys_.size()) >> 64);
  }

  // Adds the entry; entries already holding `key` stay.
  void insert(std::uint64_t key, std::uint32_t value) {
    HYVE_CHECK(key != kEmptyKey);
    if (size_ == limit_) grow();
    std::size_t i = home(key);
    while (keys_[i] != kEmptyKey) i = next(i);
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  // The value of an entry with `key` when there is one; otherwise adds
  // (key, value) and returns `value`.
  std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t value) {
    HYVE_CHECK(key != kEmptyKey);
    if (size_ == limit_) grow();
    const std::size_t i = locate(key, [](std::uint32_t) { return true; });
    if (keys_[i] == kEmptyKey) {
      keys_[i] = key;
      values_[i] = value;
      ++size_;
    }
    return values_[i];
  }

  // The value of the entry (key, value) itself, for rewriting it in
  // place; nullptr when there is no such entry.
  std::uint32_t* find(std::uint64_t key, std::uint32_t value) {
    const std::size_t i =
        locate(key, [value](std::uint32_t v) { return v == value; });
    return keys_[i] == kEmptyKey ? nullptr : &values_[i];
  }

  // Removes one entry with `key` and returns its value.
  std::optional<std::uint32_t> erase(std::uint64_t key) {
    const std::size_t i = locate(key, [](std::uint32_t) { return true; });
    if (keys_[i] == kEmptyKey) return std::nullopt;
    const std::uint32_t value = values_[i];
    erase_at(i);
    return value;
  }

  // Removes the entry (key, value); false when there is none.
  bool erase(std::uint64_t key, std::uint32_t value) {
    const std::size_t i =
        locate(key, [value](std::uint32_t v) { return v == value; });
    if (keys_[i] == kEmptyKey) return false;
    erase_at(i);
    return true;
  }

 private:
  std::size_t next(std::size_t i) const {
    return i + 1 == keys_.size() ? 0 : i + 1;
  }

  // The first bucket of key's run holding `key` with a value `accept`s,
  // or the free bucket that ends the run.
  template <typename Accept>
  std::size_t locate(std::uint64_t key, Accept accept) const {
    std::size_t i = home(key);
    while (keys_[i] != kEmptyKey && !(keys_[i] == key && accept(values_[i])))
      i = next(i);
    return i;
  }

  // Empties bucket `hole`, then walks the rest of its run and moves back
  // every entry whose probe path crosses the hole (its home does not lie
  // strictly between the hole and the entry).
  void erase_at(std::size_t hole) {
    for (std::size_t i = next(hole); keys_[i] != kEmptyKey; i = next(i)) {
      if (distance(home(keys_[i]), i) >= distance(hole, i)) {
        keys_[hole] = keys_[i];
        values_[hole] = values_[i];
        hole = i;
      }
    }
    keys_[hole] = kEmptyKey;
    --size_;
  }

  // Buckets from `from` forward to `to`, wrapping past the end.
  std::size_t distance(std::size_t from, std::size_t to) const {
    return to >= from ? to - from : to + keys_.size() - from;
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
