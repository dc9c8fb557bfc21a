// Differential test: the dynamic store's open-addressing FlatTable
// against std::unordered_multimap over long random operation sequences.
// The tables stay small and keys come from a narrow range, so probe runs
// wrap past the last bucket, backward-shift deletes cross the wrap, and
// most keys carry several entries. The bulk paths are checked bucket for
// bucket against loops of per-key calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/flat_table.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

using Model = std::unordered_multimap<std::uint64_t, std::uint32_t>;

bool model_has(const Model& model, std::uint64_t key, std::uint32_t value) {
  const auto [first, last] = model.equal_range(key);
  return std::any_of(first, last,
                     [&](const auto& entry) { return entry.second == value; });
}

void model_erase(Model& model, std::uint64_t key, std::uint32_t value) {
  auto [first, last] = model.equal_range(key);
  for (auto it = first; it != last; ++it) {
    if (it->second == value) {
      model.erase(it);
      return;
    }
  }
  FAIL() << "model has no entry (" << key << ", " << value << ")";
}

// Drains a copy of the table entry by entry: it must hold exactly the
// model's multiset of (key, value) pairs.
void expect_same_entries(const FlatTable& table, const Model& model) {
  FlatTable drained = table;
  ASSERT_EQ(drained.size(), model.size());
  for (const auto& [key, value] : model)
    ASSERT_TRUE(drained.erase(key, value)) << key << " -> " << value;
  EXPECT_EQ(drained.size(), 0u);
}

// Keys whose home bucket is the table's last one: their runs must wrap.
std::vector<std::uint64_t> keys_homed_last(const FlatTable& table) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 0; keys.size() < 3; ++key)
    if (table.home(key) == table.capacity() - 1) keys.push_back(key);
  return keys;
}

class FlatTableDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatTableDifferentialTest, AgreesWithUnorderedMultimap) {
  const std::uint64_t seed = GetParam();
  FlatTable table(4);
  const std::size_t capacity = table.capacity();
  std::vector<std::uint64_t> keys = keys_homed_last(table);
  for (std::uint64_t key = 0; keys.size() < 8; ++key)
    if (std::find(keys.begin(), keys.end(), key) == keys.end())
      keys.push_back(key);
  Model model;
  Rng rng(seed);
  // Stays below the growth threshold, so every operation runs on the
  // same small, crowded table.
  const std::size_t max_entries = capacity / 2;

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = keys[rng.next_below(keys.size())];
    const auto value = static_cast<std::uint32_t>(rng.next_below(4));
    const double r = rng.next_double();
    if (r < 0.30) {
      if (model.size() < max_entries) {
        table.insert(key, value);
        model.emplace(key, value);
      }
    } else if (r < 0.50) {
      const std::optional<std::uint32_t> erased = table.erase(key);
      ASSERT_EQ(erased.has_value(), model.count(key) > 0) << "op " << op;
      if (erased) model_erase(model, key, *erased);
    } else if (r < 0.70) {
      const bool present = model_has(model, key, value);
      ASSERT_EQ(table.erase(key, value), present) << "op " << op;
      if (present) model_erase(model, key, value);
    } else if (r < 0.80) {
      // The block directory's lookup: an existing entry's value, or a new
      // entry.
      if (model.count(key) > 0) {
        EXPECT_TRUE(model_has(model, key, table.find_or_insert(key, value)))
            << "op " << op;
      } else if (model.size() < max_entries) {
        EXPECT_EQ(table.find_or_insert(key, value), value) << "op " << op;
        model.emplace(key, value);
      }
    } else {
      // Retarget one (key, value) entry in place, as the store does for
      // the edge it moves into a freed slot.
      std::uint32_t* found = table.find(key, value);
      ASSERT_EQ(found != nullptr, model_has(model, key, value)) << "op " << op;
      if (found != nullptr) {
        const auto retargeted = static_cast<std::uint32_t>(rng.next_below(4));
        *found = retargeted;
        model_erase(model, key, value);
        model.emplace(key, retargeted);
      }
    }
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
    if (op % 100 == 99) expect_same_entries(table, model);
  }
  EXPECT_EQ(table.capacity(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTableDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(FlatTable, GrowsPastItsReservationAndKeepsEntries) {
  FlatTable table(4);
  const std::size_t capacity = table.capacity();
  Model model;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.insert(i % 37, i);
    model.emplace(i % 37, i);
  }
  EXPECT_GT(table.capacity(), capacity);
  expect_same_entries(table, model);
}

// Also inside a batch, where the entries before the empty key stay.
TEST(FlatTable, EmptyKeyIsRejected) {
  FlatTable table;
  EXPECT_THROW(table.insert(FlatTable::kEmptyKey, 0), InvariantError);

  const std::vector<std::uint64_t> keys = {3, 9, FlatTable::kEmptyKey, 4};
  const auto key_at = [&](std::size_t i) { return keys[i]; };
  FlatTable inserted(8);
  EXPECT_THROW(
      inserted.insert_all(keys.size(), key_at,
                          [](std::size_t) { return std::uint32_t{0}; }),
      InvariantError);
  EXPECT_EQ(inserted.size(), 2u);
  FlatTable found(8);
  std::vector<std::uint32_t> out(keys.size());
  EXPECT_THROW(found.find_or_insert_all(keys.size(), key_at, out.data()),
               InvariantError);
  EXPECT_EQ(found.size(), 2u);
}

// An erase leaves its value in the freed bucket; equality ignores it.
TEST(FlatTable, EqualityComparesOccupiedBucketsOnly) {
  FlatTable erased(8);
  erased.insert(1, 10);
  erased.insert(2, 20);
  ASSERT_TRUE(erased.erase(2, 20));
  FlatTable fresh(8);
  fresh.insert(1, 10);
  EXPECT_TRUE(erased == fresh);

  FlatTable other_value(8);
  other_value.insert(1, 11);
  EXPECT_FALSE(erased == other_value);
  FlatTable other_capacity(64);
  other_capacity.insert(1, 10);
  EXPECT_FALSE(erased == other_capacity);
}

// ---------- bulk paths ----------

// Batches for the bulk paths, each run on a table built with room for
// `expected` entries. Keys homed at the last bucket make probe runs
// wrap; repeated keys exercise duplicates; a batch past FlatTable(4)'s
// reservation makes grow() fire mid-batch.
struct Batch {
  const char* name;
  std::size_t expected;
  std::vector<std::uint64_t> keys;
  bool grows = false;
};

std::vector<Batch> bulk_batches() {
  std::vector<Batch> batches;
  {
    const FlatTable probe(64);
    Batch wrap{"wrapping runs", 64, {}};
    for (std::uint64_t key = 0; wrap.keys.size() < 6; ++key)
      if (probe.home(key) == probe.capacity() - 1) wrap.keys.push_back(key);
    for (std::uint64_t key = 1000; key < 1030; ++key) wrap.keys.push_back(key);
    batches.push_back(std::move(wrap));
  }
  {
    Batch dup{"duplicate keys", 256, {}};
    Rng rng(5);
    for (int i = 0; i < 150; ++i) dup.keys.push_back(rng.next_below(40));
    batches.push_back(std::move(dup));
  }
  {
    Batch grow{"grows mid-batch", 4, {}, true};
    Rng rng(6);
    for (int i = 0; i < 500; ++i) grow.keys.push_back(rng.next_below(300));
    batches.push_back(std::move(grow));
  }
  return batches;
}

TEST(FlatTable, InsertAllEqualsPerKeyInserts) {
  for (const Batch& batch : bulk_batches()) {
    SCOPED_TRACE(batch.name);
    const std::vector<std::uint64_t>& keys = batch.keys;
    FlatTable per_key(batch.expected);
    for (std::size_t i = 0; i < keys.size(); ++i)
      per_key.insert(keys[i], static_cast<std::uint32_t>(i));
    FlatTable bulk(batch.expected);
    bulk.insert_all(
        keys.size(), [&](std::size_t i) { return keys[i]; },
        [](std::size_t i) { return static_cast<std::uint32_t>(i); });
    EXPECT_EQ(bulk.size(), keys.size());
    EXPECT_EQ(bulk.capacity() > FlatTable(batch.expected).capacity(),
              batch.grows);
    EXPECT_TRUE(bulk == per_key);
  }
}

TEST(FlatTable, FindOrInsertAllEqualsPerKeyLoop) {
  for (const Batch& batch : bulk_batches()) {
    SCOPED_TRACE(batch.name);
    const std::vector<std::uint64_t>& keys = batch.keys;
    FlatTable per_key(batch.expected);
    std::vector<std::uint32_t> expected;
    for (const std::uint64_t key : keys)
      expected.push_back(per_key.find_or_insert(
          key, static_cast<std::uint32_t>(per_key.size())));
    FlatTable bulk(batch.expected);
    std::vector<std::uint32_t> out(keys.size());
    bulk.find_or_insert_all(
        keys.size(), [&](std::size_t i) { return keys[i]; }, out.data());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(bulk.capacity() > FlatTable(batch.expected).capacity(),
              batch.grows);
    EXPECT_TRUE(bulk == per_key);

    // The values number the distinct keys in first-touch order.
    std::vector<std::uint64_t> first_touch;
    for (const std::uint64_t key : keys)
      if (std::find(first_touch.begin(), first_touch.end(), key) ==
          first_touch.end())
        first_touch.push_back(key);
    ASSERT_EQ(bulk.size(), first_touch.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(first_touch[out[i]], keys[i]) << "key " << i;
  }
}

}  // namespace
}  // namespace hyve
