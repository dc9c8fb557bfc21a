// Differential test: the dynamic store's open-addressing FlatTable
// against std::unordered_multimap over long random operation sequences.
// The tables stay small and keys come from a narrow range, so probe runs
// wrap past the last bucket, backward-shift deletes cross the wrap, and
// most keys carry several entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
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

TEST(FlatTable, EmptyKeyIsRejected) {
  FlatTable table;
  EXPECT_THROW(table.insert(FlatTable::kEmptyKey, 0), InvariantError);
}

}  // namespace
}  // namespace hyve
