#include "dynamic/flat_table.hpp"

#include <utility>

namespace hyve {

void FlatTable::grow() {
  FlatTable bigger(2 * size_);
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] != kEmptyKey) bigger.insert(keys_[i], values_[i]);
  *this = std::move(bigger);
}

}  // namespace hyve
