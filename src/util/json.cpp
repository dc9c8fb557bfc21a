#include "util/json.hpp"

namespace hyve {

void write_json_string(std::ostream& os, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        else
          os << c;
    }
  }
  os << '"';
}

}  // namespace hyve
