#include "dynamic/flat_table.hpp"

#include <utility>

namespace hyve {

void FlatTable::grow() {
  FlatTable bigger(2 * size_);
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] != kEmptyKey) bigger.insert(keys_[i], values_[i]);
  *this = std::move(bigger);
}

bool FlatTable::operator==(const FlatTable& other) const {
  if (keys_.size() != other.keys_.size()) return false;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] != other.keys_[i]) return false;
    if (keys_[i] != kEmptyKey && values_[i] != other.values_[i]) return false;
  }
  return true;
}

}  // namespace hyve
