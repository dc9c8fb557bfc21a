#include "core/bench_json.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/report_io.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace hyve {
namespace {

using FieldMap = std::map<std::string, std::string>;

const std::string& get(const FieldMap& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end())
    throw std::runtime_error("bench report: missing field \"" + key + "\"");
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
    throw std::runtime_error("bench report: field \"" + key +
                             "\" is not a number: \"" + token + "\"");
  }
}

EnergyComponent component_from_name(const std::string& name) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    if (component_name(c) == name) return c;
  }
  throw std::runtime_error("bench report: unknown energy component \"" +
                           name + "\"");
}

Phase phase_from_name(const std::string& name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (phase_name(p) == name) return p;
  }
  throw std::runtime_error("bench report: unknown phase \"" + name + "\"");
}

bool close(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max({std::abs(a), std::abs(b), 1.0});
}

std::string run_key(const std::string& config, const std::string& algorithm,
                    const std::string& graph) {
  return config + "/" + algorithm + "/" + graph;
}

void write_ledger_cells(std::ostream& os, const EnergyLedger& ledger) {
  os << '[';
  bool first = true;
  for (const auto& [key, pj] : ledger.cells()) {
    if (!first) os << ',';
    first = false;
    os << "{\"component\":";
    write_json_string(os, component_name(key.component));
    os << ",\"phase\":";
    write_json_string(os, phase_name(key.phase));
    os << ",\"unit\":";
    write_json_string(os, key.unit);
    os << ",\"pj\":" << std::setprecision(12) << pj << '}';
  }
  os << ']';
}

EnergyLedger parse_ledger_cells(const FieldMap& fields,
                                const std::string& prefix) {
  EnergyLedger ledger;
  for (std::size_t i = 0;; ++i) {
    const std::string base = prefix + std::to_string(i) + ".";
    if (fields.count(base + "component") == 0) break;
    ledger.charge(component_from_name(get(fields, base + "component")),
                  phase_from_name(get(fields, base + "phase")),
                  get(fields, base + "unit"), get_num(fields, base + "pj"));
  }
  return ledger;
}

bool ledgers_close(const EnergyLedger& a, const EnergyLedger& b,
                   double rel_tol) {
  if (a.size() != b.size()) return false;
  auto ita = a.cells().begin();
  auto itb = b.cells().begin();
  for (; ita != a.cells().end(); ++ita, ++itb) {
    if (ita->first.component != itb->first.component ||
        ita->first.phase != itb->first.phase ||
        ita->first.unit != itb->first.unit ||
        !close(ita->second, itb->second, rel_tol))
      return false;
  }
  return true;
}

}  // namespace

std::string build_git_rev() {
#ifdef HYVE_GIT_REV
  return HYVE_GIT_REV;
#else
  return "unknown";
#endif
}

std::string build_type() {
#ifdef HYVE_BUILD_TYPE
  return HYVE_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void add_attribution_metadata(obs::Trace& trace, int argc,
                              const char* const* argv) {
  std::string cmdline;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) cmdline += ' ';
    cmdline += argv[i];
  }
  trace.metadata("run_attribution", {{"build_type", build_type()},
                                     {"cmdline", cmdline},
                                     {"git_rev", build_git_rev()}});
}

std::string bench_report_to_json(const BenchReportDoc& doc) {
  // Refuse to serialise anything the checker would reject.
  for (const BenchRun& run : doc.runs) {
    run.report.validate_phase_totals();
    run.report.validate_ledger();
  }
  std::ostringstream os;
  os << "{\"schema\":";
  write_json_string(os, kBenchReportSchemaName);
  os << ",\"schema_version\":" << kBenchReportSchemaVersion;
  os << ",\"bench\":";
  write_json_string(os, doc.bench);
  os << ",\"git_rev\":";
  write_json_string(os, doc.git_rev);
  os << ",\"smoke\":" << (doc.smoke ? "true" : "false");
  if (doc.host.present) {
    // The one wall-clock-dependent object; a single "host":{...} group
    // of numeric fields so byte-diff scripts can strip it wholesale.
    os << ",\"host\":{\"jobs\":" << doc.host.jobs
       << ",\"max_rss_kb\":" << doc.host.max_rss_kb
       << ",\"wall_ms\":" << std::setprecision(12) << doc.host.wall_ms
       << '}';
  }
  os << ",\"datasets\":[";
  for (std::size_t i = 0; i < doc.datasets.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, doc.datasets[i]);
  }
  os << ']';
  os << ",\"runs\":[";
  for (std::size_t i = 0; i < doc.runs.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"graph\":";
    write_json_string(os, doc.runs[i].graph_key);
    os << ",\"report\":";
    write_report_json(os, doc.runs[i].report);
    os << '}';
  }
  os << ']';
  os << ",\"ledger_rollup\":";
  write_ledger_cells(os, doc.ledger_rollup);
  os << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : doc.metrics) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':' << value;
  }
  os << "}}";
  return os.str();
}

void write_bench_report_file(const std::string& path,
                             const BenchReportDoc& doc) {
  const std::string json = bench_report_to_json(doc);
  // Parse-back proof before anything reaches disk, mirroring
  // validated_report_json(): no tool can write a file --check rejects.
  bench_report_from_json(json);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open bench report " + path);
  os << json << '\n';
  if (!os.good())
    throw std::runtime_error("failed writing bench report " + path);
}

BenchReportDoc bench_report_from_json(const std::string& json) {
  const FieldMap fields = parse_flat_json(json);

  if (get(fields, "schema") != kBenchReportSchemaName)
    throw std::runtime_error("bench report: schema is \"" +
                             get(fields, "schema") + "\", expected \"" +
                             kBenchReportSchemaName + "\"");
  const double version = get_num(fields, "schema_version");
  if (version != kBenchReportSchemaVersion)
    throw std::runtime_error(
        "bench report: schema_version " + get(fields, "schema_version") +
        " is not supported (this build reads version " +
        std::to_string(kBenchReportSchemaVersion) + ")");

  BenchReportDoc doc;
  doc.bench = get(fields, "bench");
  doc.git_rev = get(fields, "git_rev");
  const std::string& smoke = get(fields, "smoke");
  if (smoke != "true" && smoke != "false")
    throw std::runtime_error("bench report: smoke is \"" + smoke +
                             "\", expected true or false");
  doc.smoke = smoke == "true";

  if (fields.count("host.jobs") != 0) {
    doc.host.present = true;
    doc.host.jobs = static_cast<int>(get_num(fields, "host.jobs"));
    doc.host.max_rss_kb =
        static_cast<std::uint64_t>(get_num(fields, "host.max_rss_kb"));
    doc.host.wall_ms = get_num(fields, "host.wall_ms");
    if (doc.host.wall_ms < 0 || doc.host.jobs < 0)
      throw std::runtime_error("bench report: negative host measurement");
  }

  for (std::size_t i = 0;; ++i) {
    const auto it = fields.find("datasets." + std::to_string(i));
    if (it == fields.end()) break;
    doc.datasets.push_back(it->second);
  }

  EnergyLedger expected_rollup;
  for (std::size_t i = 0;; ++i) {
    const std::string base = "runs." + std::to_string(i) + ".";
    if (fields.count(base + "graph") == 0) break;
    BenchRun run;
    run.graph_key = get(fields, base + "graph");
    run.report = run_report_from_fields(fields, base + "report.");
    expected_rollup += run.report.ledger;
    doc.runs.push_back(std::move(run));
  }

  try {
    doc.ledger_rollup = parse_ledger_cells(fields, "ledger_rollup.");
  } catch (const InvariantError& e) {
    throw std::runtime_error(
        std::string("bench report: ledger rollup invalid: ") + e.what());
  }
  if (!ledgers_close(doc.ledger_rollup, expected_rollup, 1e-6))
    throw std::runtime_error(
        "bench report: ledger_rollup does not equal the cell-wise sum of "
        "the runs' ledgers");

  const std::string metrics_prefix = "metrics.";
  for (auto it = fields.lower_bound(metrics_prefix);
       it != fields.end() && it->first.rfind(metrics_prefix, 0) == 0; ++it) {
    const std::string name = it->first.substr(metrics_prefix.size());
    get_num(fields, it->first);  // numeric or reject
    doc.metrics.emplace(name, it->second);
  }

  return doc;
}

BenchReportDoc read_bench_report_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open bench report " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return bench_report_from_json(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

BenchCompareResult compare_bench_reports(const BenchReportDoc& old_doc,
                                         const BenchReportDoc& new_doc,
                                         double threshold_pct) {
  struct Metric {
    const char* name;
    double (*value)(const RunReport&);
    bool lower_is_better;
  };
  static const Metric kMetrics[] = {
      {"exec_time_ns", [](const RunReport& r) { return r.exec_time_ns; },
       true},
      {"energy_pj", [](const RunReport& r) { return r.total_energy_pj(); },
       true},
      {"mteps", [](const RunReport& r) { return r.mteps(); }, false},
      {"mteps_per_watt",
       [](const RunReport& r) { return r.mteps_per_watt(); }, false},
  };

  std::map<std::string, const RunReport*> old_runs;
  for (const BenchRun& run : old_doc.runs)
    old_runs.emplace(run_key(run.report.config_label, run.report.algorithm,
                             run.graph_key),
                     &run.report);

  BenchCompareResult result;
  std::map<std::string, const RunReport*> matched;
  for (const BenchRun& run : new_doc.runs) {
    const std::string key = run_key(run.report.config_label,
                                    run.report.algorithm, run.graph_key);
    const auto it = old_runs.find(key);
    if (it == old_runs.end()) {
      result.added.push_back(key);
      continue;
    }
    matched.emplace(key, it->second);
    ++result.cells_compared;
    for (const Metric& m : kMetrics) {
      BenchCompareLine line;
      line.cell = key;
      line.metric = m.name;
      line.old_value = m.value(*it->second);
      line.new_value = m.value(run.report);
      const double base = line.old_value != 0 ? line.old_value : 1.0;
      line.delta_pct = (line.new_value - line.old_value) / base * 100.0;
      line.regressed = m.lower_is_better ? line.delta_pct > threshold_pct
                                         : line.delta_pct < -threshold_pct;
      if (line.regressed) ++result.regressions;
      result.lines.push_back(std::move(line));
    }
  }
  for (const auto& [key, report] : old_runs)
    if (matched.count(key) == 0) result.removed.push_back(key);
  return result;
}

std::string format_bench_compare(const BenchCompareResult& result,
                                 double threshold_pct) {
  std::ostringstream os;
  os << std::setprecision(6);
  for (const BenchCompareLine& line : result.lines) {
    os << line.cell << ' ' << line.metric << ' ' << line.old_value << " -> "
       << line.new_value << " (" << (line.delta_pct >= 0 ? "+" : "")
       << std::setprecision(3) << line.delta_pct << std::setprecision(6)
       << "%)";
    if (line.regressed) os << " REGRESSION";
    os << '\n';
  }
  for (const std::string& key : result.added) os << key << " added\n";
  for (const std::string& key : result.removed) os << key << " removed\n";
  os << result.cells_compared << " cells compared, " << result.added.size()
     << " added, " << result.removed.size() << " removed, "
     << result.regressions << " regression(s) beyond " << threshold_pct
     << "%\n";
  return os.str();
}

}  // namespace hyve
