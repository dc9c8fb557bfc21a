// The one JSON string writer shared by every JSON emitter (run reports,
// bench reports, perf-history lines, traces, live snapshots).
#pragma once

#include <ostream>
#include <string_view>

namespace hyve {

// Writes `s` as a quoted JSON string: quotes, backslashes, newlines and
// tabs get their short escapes, other control bytes \u00XX; every other
// byte (UTF-8 included) passes through.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace hyve
