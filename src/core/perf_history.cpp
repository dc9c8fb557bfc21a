#include "core/perf_history.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/bench_json.hpp"
#include "core/report_io.hpp"
#include "util/json.hpp"

namespace hyve {
namespace {

namespace fs = std::filesystem;

using FieldMap = std::map<std::string, std::string>;

const std::string& get(const FieldMap& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end())
    throw std::runtime_error("perf record: missing field \"" + key + "\"");
  return it->second;
}

double get_num(const FieldMap& fields, const std::string& key) {
  const std::string& token = get(fields, key);
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("perf record: field \"" + key +
                             "\" is not a number: \"" + token + "\"");
  }
}

// The ledger file name is derived from the bench name; refuse names
// that would escape the history directory.
void check_path_component(const std::string& name, const char* what) {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos || name == "." || name == "..")
    throw std::runtime_error(std::string(what) + " \"" + name +
                             "\" is not a valid file name");
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Records are only comparable when they measured the same workload on
// the same machine shape.
bool comparable(const PerfRecord& a, const PerfRecord& b) {
  return a.bench == b.bench && a.hostname == b.hostname &&
         a.jobs == b.jobs && a.smoke == b.smoke && a.cells == b.cells;
}

// All four headline metrics are lower-is-better (time, memory, energy).
struct Metric {
  const char* name;
  double (*value)(const PerfRecord&);
};
constexpr Metric kMetrics[] = {
    {"energy_pj", [](const PerfRecord& r) { return r.energy_pj; }},
    {"exec_time_ns", [](const PerfRecord& r) { return r.exec_time_ns; }},
    {"max_rss_kb",
     [](const PerfRecord& r) { return static_cast<double>(r.max_rss_kb); }},
    {"wall_ms", [](const PerfRecord& r) { return r.wall_ms; }},
};

PerfTrendResult compare_against(const PerfRecord& latest,
                                const std::vector<const PerfRecord*>& refs,
                                double threshold_pct) {
  PerfTrendResult result;
  result.bench = latest.bench;
  result.comparable = refs.size();
  for (const Metric& m : kMetrics) {
    std::vector<double> values;
    values.reserve(refs.size());
    for (const PerfRecord* r : refs) values.push_back(m.value(*r));
    PerfTrendLine line;
    line.metric = m.name;
    line.reference = median(std::move(values));
    line.latest = m.value(latest);
    const double base = line.reference != 0 ? line.reference : 1.0;
    line.delta_pct = (line.latest - line.reference) / base * 100.0;
    line.regressed = line.delta_pct > threshold_pct;
    if (line.regressed) ++result.regressions;
    result.lines.push_back(std::move(line));
  }
  return result;
}

}  // namespace

PerfRecord perf_record_from_report(const BenchReportDoc& doc) {
  PerfRecord record;
  record.bench = doc.bench;
  record.git_rev = doc.git_rev;
  record.smoke = doc.smoke;
  record.cells = doc.runs.size();
  record.energy_pj = doc.ledger_rollup.total_pj();
  for (const BenchRun& run : doc.runs)
    record.exec_time_ns += run.report.exec_time_ns;
  if (doc.host.present) {
    record.wall_ms = doc.host.wall_ms;
    record.max_rss_kb = doc.host.max_rss_kb;
    record.jobs = doc.host.jobs;
  }
  return record;
}

std::string perf_record_to_json(const PerfRecord& record) {
  std::ostringstream os;
  os << "{\"bench\":";
  write_json_string(os, record.bench);
  os << ",\"cells\":" << record.cells;
  os << ",\"cpu_model\":";
  write_json_string(os, record.cpu_model);
  os << ",\"cpus\":" << record.cpus;
  os << ",\"energy_pj\":" << std::setprecision(12) << record.energy_pj;
  os << ",\"exec_time_ns\":" << record.exec_time_ns;
  os << ",\"git_rev\":";
  write_json_string(os, record.git_rev);
  os << ",\"hostname\":";
  write_json_string(os, record.hostname);
  os << ",\"jobs\":" << record.jobs;
  os << ",\"max_rss_kb\":" << record.max_rss_kb;
  os << ",\"recorded_at\":";
  write_json_string(os, record.recorded_at);
  os << ",\"schema\":";
  write_json_string(os, kPerfHistorySchemaName);
  os << ",\"schema_version\":" << kPerfHistorySchemaVersion;
  os << ",\"smoke\":" << (record.smoke ? "true" : "false");
  os << ",\"wall_ms\":" << record.wall_ms;
  os << '}';
  return os.str();
}

PerfRecord perf_record_from_json(const std::string& json) {
  const FieldMap fields = parse_flat_json(json);
  if (get(fields, "schema") != kPerfHistorySchemaName)
    throw std::runtime_error("perf record: schema is \"" +
                             get(fields, "schema") + "\", expected \"" +
                             kPerfHistorySchemaName + "\"");
  if (get_num(fields, "schema_version") != kPerfHistorySchemaVersion)
    throw std::runtime_error(
        "perf record: schema_version " + get(fields, "schema_version") +
        " is not supported (this build reads version " +
        std::to_string(kPerfHistorySchemaVersion) + ")");

  PerfRecord record;
  record.bench = get(fields, "bench");
  record.git_rev = get(fields, "git_rev");
  record.recorded_at = get(fields, "recorded_at");
  record.hostname = get(fields, "hostname");
  record.cpu_model = get(fields, "cpu_model");
  record.cpus = static_cast<std::uint64_t>(get_num(fields, "cpus"));
  record.jobs = static_cast<std::int64_t>(get_num(fields, "jobs"));
  const std::string& smoke = get(fields, "smoke");
  if (smoke != "true" && smoke != "false")
    throw std::runtime_error("perf record: smoke is \"" + smoke +
                             "\", expected true or false");
  record.smoke = smoke == "true";
  record.cells = static_cast<std::uint64_t>(get_num(fields, "cells"));
  record.wall_ms = get_num(fields, "wall_ms");
  record.max_rss_kb =
      static_cast<std::uint64_t>(get_num(fields, "max_rss_kb"));
  record.energy_pj = get_num(fields, "energy_pj");
  record.exec_time_ns = get_num(fields, "exec_time_ns");
  if (record.wall_ms < 0 || record.energy_pj < 0 ||
      record.exec_time_ns < 0)
    throw std::runtime_error("perf record: negative measurement");
  return record;
}

std::string perf_history_path(const std::string& dir,
                              const std::string& bench) {
  check_path_component(bench, "perf history: bench name");
  return (fs::path(dir) / (bench + ".jsonl")).string();
}

void append_perf_record(const std::string& dir, const PerfRecord& record) {
  const std::string path = perf_history_path(dir, record.bench);
  const std::string line = perf_record_to_json(record);
  perf_record_from_json(line);  // parse-back proof before touching disk
  fs::create_directories(dir);
  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot open perf history " + path);
  os << line << '\n';
  if (!os.good())
    throw std::runtime_error("failed writing perf history " + path);
}

std::vector<PerfRecord> load_perf_history(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open perf history " + path);
  std::vector<PerfRecord> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      records.push_back(perf_record_from_json(line));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return records;
}

std::vector<std::string> list_perf_histories(const std::string& dir) {
  std::vector<std::string> paths;
  if (!fs::is_directory(dir)) return paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

void save_perf_baseline(const std::string& dir, const std::string& name,
                        const PerfRecord& record) {
  check_path_component(name, "perf baseline: name");
  const fs::path base = fs::path(dir) / "baselines";
  fs::create_directories(base);
  const std::string path = (base / (name + ".json")).string();
  const std::string line = perf_record_to_json(record);
  perf_record_from_json(line);
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open baseline " + path);
  os << line << '\n';
  if (!os.good())
    throw std::runtime_error("failed writing baseline " + path);
}

PerfRecord load_perf_baseline(const std::string& dir,
                              const std::string& name) {
  check_path_component(name, "perf baseline: name");
  const std::string path =
      (fs::path(dir) / "baselines" / (name + ".json")).string();
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open baseline " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return perf_record_from_json(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

PerfTrendResult trend_perf_history(const std::vector<PerfRecord>& records,
                                   double threshold_pct) {
  PerfTrendResult result;
  result.records = records.size();
  if (records.empty()) {
    result.note = "no records";
    return result;
  }
  const PerfRecord& latest = records.back();
  result.bench = latest.bench;
  std::vector<const PerfRecord*> refs;
  for (std::size_t i = 0; i + 1 < records.size(); ++i)
    if (comparable(records[i], latest)) refs.push_back(&records[i]);
  if (refs.empty()) {
    result.note =
        "no comparable prior records (same bench, host, jobs, smoke, "
        "cells)";
    return result;
  }
  PerfTrendResult compared =
      compare_against(latest, refs, threshold_pct);
  compared.records = result.records;
  return compared;
}

PerfTrendResult compare_to_baseline(const PerfRecord& baseline,
                                    const PerfRecord& latest,
                                    double threshold_pct) {
  if (!comparable(baseline, latest)) {
    PerfTrendResult result;
    result.bench = latest.bench;
    result.records = 1;
    result.note =
        "baseline is not comparable (bench, host, jobs, smoke or cells "
        "differ)";
    return result;
  }
  PerfTrendResult result =
      compare_against(latest, {&baseline}, threshold_pct);
  result.records = 1;
  return result;
}

std::string format_perf_trend(const PerfTrendResult& result,
                              double threshold_pct) {
  std::ostringstream os;
  os << std::setprecision(6);
  if (!result.note.empty())
    os << result.bench << (result.bench.empty() ? "" : ": ")
       << result.note << " (" << result.records << " record(s))\n";
  for (const PerfTrendLine& line : result.lines) {
    os << result.bench << ' ' << line.metric << ' ' << line.reference
       << " -> " << line.latest << " ("
       << (line.delta_pct >= 0 ? "+" : "") << std::setprecision(3)
       << line.delta_pct << std::setprecision(6) << "%)";
    if (line.regressed) os << " REGRESSION";
    os << '\n';
  }
  if (result.note.empty())
    os << result.records << " record(s), " << result.comparable
       << " comparable, " << result.regressions
       << " regression(s) beyond " << threshold_pct << "%\n";
  return os.str();
}

}  // namespace hyve
