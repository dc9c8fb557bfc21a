#include "core/report_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/json.hpp"

namespace hyve {
namespace {

void write_number(std::ostream& os, double v) {
  HYVE_CHECK_MSG(std::isfinite(v), "non-finite value in report");
  os << std::setprecision(12) << v;
}

}  // namespace

void write_report_json(std::ostream& os, const RunReport& r) {
  os << '{';
  os << "\"config\":";
  write_json_string(os, r.config_label);
  os << ",\"algorithm\":";
  write_json_string(os, r.algorithm);
  os << ",\"num_intervals\":" << r.num_intervals;
  os << ",\"iterations\":" << r.iterations;
  os << ",\"edges_traversed\":" << r.edges_traversed;
  os << ",\"partitioner\":";
  write_json_string(os, r.partitioner);
  os << ",\"partition\":{\"n_avg\":";
  write_number(os, r.partition.n_avg);
  os << ",\"replication_factor\":";
  write_number(os, r.partition.replication_factor);
  os << ",\"interval_balance\":";
  write_number(os, r.partition.interval_balance);
  os << ",\"remote_edge_fraction\":";
  write_number(os, r.partition.remote_edge_fraction);
  os << ",\"bank_wake_fraction\":";
  write_number(os, r.partition.bank_wake_fraction);
  os << '}';
  os << ",\"exec_time_ns\":";
  write_number(os, r.exec_time_ns);
  os << ",\"streaming_time_ns\":";
  write_number(os, r.streaming_time_ns);
  os << ",\"energy_pj\":";
  write_number(os, r.total_energy_pj());
  os << ",\"mteps\":";
  write_number(os, r.mteps());
  os << ",\"mteps_per_watt\":";
  write_number(os, r.mteps_per_watt());
  os << ",\"energy_breakdown_pj\":{";
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    if (i > 0) os << ',';
    write_json_string(os, component_name(c));
    os << ':';
    write_number(os, r.energy[c]);
  }
  os << '}';
  os << ",\"phase_time_ns\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (i > 0) os << ',';
    write_json_string(os, phase_name(p));
    os << ':';
    write_number(os, r.phases.time(p));
  }
  os << '}';
  os << ",\"phase_energy_pj\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (i > 0) os << ',';
    write_json_string(os, phase_name(p));
    os << ':';
    write_number(os, r.phases.energy(p));
  }
  os << '}';
  // The attribution ledger, one cell per element; the map iterates in
  // key order so the array is deterministic. Absent (empty) for
  // hand-assembled reports and pre-ledger files.
  if (!r.ledger.empty()) {
    os << ",\"energy_ledger\":[";
    bool first = true;
    for (const auto& [key, pj] : r.ledger.cells()) {
      if (!first) os << ',';
      first = false;
      os << "{\"component\":";
      write_json_string(os, component_name(key.component));
      os << ",\"phase\":";
      write_json_string(os, phase_name(key.phase));
      os << ",\"unit\":";
      write_json_string(os, key.unit);
      os << ",\"pj\":";
      write_number(os, pj);
      os << '}';
    }
    os << ']';
  }
  os << ",\"stats\":{"
     << "\"edge_bytes_read\":" << r.stats.edge_bytes_read
     << ",\"edge_stream_passes\":" << r.stats.edge_stream_passes
     << ",\"offchip_vertex_bytes_read\":" << r.stats.offchip_vertex_bytes_read
     << ",\"offchip_vertex_bytes_written\":"
     << r.stats.offchip_vertex_bytes_written
     << ",\"offchip_vertex_random_reads\":"
     << r.stats.offchip_vertex_random_reads
     << ",\"offchip_vertex_random_writes\":"
     << r.stats.offchip_vertex_random_writes
     << ",\"sram_random_reads\":" << r.stats.sram_random_reads
     << ",\"sram_random_writes\":" << r.stats.sram_random_writes
     << ",\"sram_fill_bytes\":" << r.stats.sram_fill_bytes
     << ",\"sram_drain_bytes\":" << r.stats.sram_drain_bytes
     << ",\"router_hops\":" << r.stats.router_hops
     << ",\"edge_ops\":" << r.stats.edge_ops
     << ",\"vertex_ops\":" << r.stats.vertex_ops
     << ",\"interval_loads\":" << r.stats.interval_loads
     << ",\"interval_writebacks\":" << r.stats.interval_writebacks << '}';
  os << ",\"power_gating\":{"
     << "\"gated_background_pj\":";
  write_number(os, r.bpg.gated_background_pj);
  os << ",\"awake_background_pj\":";
  write_number(os, r.bpg.awake_background_pj);
  os << ",\"idle_background_pj\":";
  write_number(os, r.bpg.idle_background_pj);
  os << ",\"ungated_background_pj\":";
  write_number(os, r.bpg.ungated_background_pj);
  os << ",\"wake_energy_pj\":";
  write_number(os, r.bpg.wake_energy_pj);
  os << ",\"exposed_wake_time_ns\":";
  write_number(os, r.bpg.exposed_wake_time_ns);
  os << ",\"bank_wakes\":" << r.bpg.bank_wakes << '}';
  os << '}';
}

std::string report_to_json(const RunReport& report) {
  std::ostringstream os;
  write_report_json(os, report);
  return os.str();
}

namespace {

// Recursive-descent parser for the flat two-level schema above. Values
// land in a dotted-key map ("stats.edge_ops" → raw token); strings are
// unescaped, numbers kept as text so integers round-trip exactly.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : s_(text) {}

  std::map<std::string, std::string> parse() {
    object("");
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return std::move(fields_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("run_report_from_json: " + what +
                             " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string string_token() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          out += static_cast<char>(
              std::stoi(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  std::string number_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a number");
    return s_.substr(start, pos_ - start);
  }

  std::string literal_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isalpha(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    const std::string token = s_.substr(start, pos_ - start);
    if (token != "true" && token != "false" && token != "null")
      fail("unknown literal \"" + token + "\"");
    return token;
  }

  void value(const std::string& key) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      object(key + ".");
    } else if (c == '[') {
      array(key + ".");
    } else if (c == '"') {
      fields_[key] = string_token();
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      fields_[key] = literal_token();
    } else {
      fields_[key] = number_token();
    }
  }

  void object(const std::string& prefix) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = prefix + string_token();
      skip_ws();
      expect(':');
      value(key);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  // Array elements land under "prefix.N" keys (N = element index), so
  // consumers walk them with has("prefix.0..."), has("prefix.1..."), ...
  void array(const std::string& prefix) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    std::size_t index = 0;
    while (true) {
      value(prefix + std::to_string(index));
      ++index;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::map<std::string, std::string> fields_;
};

// Typed access over the dotted-key map. Every conversion failure —
// missing key, non-numeric token, negative value for an unsigned field,
// trailing garbage — surfaces as std::runtime_error naming the field, so
// malformed records fail loudly instead of half-parsing.
class FieldReader {
 public:
  FieldReader(const std::map<std::string, std::string>& fields,
              std::string prefix)
      : fields_(fields), prefix_(std::move(prefix)) {}

  bool has(const std::string& key) const {
    return fields_.count(prefix_ + key) > 0;
  }

  const std::string& raw(const std::string& key) const {
    const auto it = fields_.find(prefix_ + key);
    if (it == fields_.end())
      throw std::runtime_error("run_report_from_json: missing field \"" +
                               prefix_ + key + "\"");
    return it->second;
  }

  std::string str(const std::string& key) const { return raw(key); }

  double num(const std::string& key) const {
    const std::string& token = raw(key);
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      fail_type(key, token, "a number");
    }
  }

  std::uint64_t u64(const std::string& key) const {
    const std::string& token = raw(key);
    try {
      // stoull happily wraps negatives; refuse them explicitly.
      if (!token.empty() && token[0] == '-')
        throw std::invalid_argument("negative");
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(token, &used);
      if (used != token.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      fail_type(key, token, "a non-negative integer");
    }
  }

  std::uint32_t u32(const std::string& key) const {
    const std::uint64_t v = u64(key);
    if (v > std::numeric_limits<std::uint32_t>::max())
      fail_type(key, raw(key), "a 32-bit integer");
    return static_cast<std::uint32_t>(v);
  }

 private:
  [[noreturn]] void fail_type(const std::string& key,
                              const std::string& token,
                              const std::string& expected) const {
    throw std::runtime_error("run_report_from_json: field \"" + prefix_ +
                             key + "\" is not " + expected + ": \"" + token +
                             "\"");
  }

  const std::map<std::string, std::string>& fields_;
  std::string prefix_;
};

bool close(double a, double b, double rel_tol) {
  return std::abs(a - b) <= rel_tol * std::max({std::abs(a), std::abs(b), 1.0});
}

EnergyComponent component_from_name(const std::string& name) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    if (component_name(c) == name) return c;
  }
  throw std::runtime_error(
      "run_report_from_json: unknown energy component \"" + name + "\"");
}

Phase phase_from_name(const std::string& name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (phase_name(p) == name) return p;
  }
  throw std::runtime_error("run_report_from_json: unknown phase \"" + name +
                           "\"");
}

}  // namespace

std::map<std::string, std::string> parse_flat_json(const std::string& text) {
  return FlatJsonParser(text).parse();
}

RunReport run_report_from_fields(
    const std::map<std::string, std::string>& fields,
    const std::string& prefix) {
  const FieldReader f(fields, prefix);

  RunReport r;
  r.config_label = f.str("config");
  r.algorithm = f.str("algorithm");
  r.num_intervals = f.u32("num_intervals");
  r.iterations = f.u32("iterations");
  r.edges_traversed = f.u64("edges_traversed");
  r.exec_time_ns = f.num("exec_time_ns");
  r.streaming_time_ns = f.num("streaming_time_ns");

  // Partitioner fields postdate the original schema; absent fields
  // (pre-partitioner files) keep the defaults (interval strategy, zeros).
  if (f.has("partitioner")) r.partitioner = f.str("partitioner");
  if (f.has("partition.n_avg")) {
    r.partition.n_avg = f.num("partition.n_avg");
    r.partition.replication_factor = f.num("partition.replication_factor");
    r.partition.interval_balance = f.num("partition.interval_balance");
    r.partition.remote_edge_fraction = f.num("partition.remote_edge_fraction");
    r.partition.bank_wake_fraction = f.num("partition.bank_wake_fraction");
  }

  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    r.energy[c] = f.num("energy_breakdown_pj." + component_name(c));
  }

  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    r.phases.time(p) = f.num("phase_time_ns." + phase_name(p));
    r.phases.energy(p) = f.num("phase_energy_pj." + phase_name(p));
  }

  AccessStats& s = r.stats;
  s.edge_bytes_read = f.u64("stats.edge_bytes_read");
  s.edge_stream_passes = f.u64("stats.edge_stream_passes");
  s.offchip_vertex_bytes_read = f.u64("stats.offchip_vertex_bytes_read");
  s.offchip_vertex_bytes_written = f.u64("stats.offchip_vertex_bytes_written");
  s.offchip_vertex_random_reads = f.u64("stats.offchip_vertex_random_reads");
  s.offchip_vertex_random_writes = f.u64("stats.offchip_vertex_random_writes");
  s.sram_random_reads = f.u64("stats.sram_random_reads");
  s.sram_random_writes = f.u64("stats.sram_random_writes");
  s.sram_fill_bytes = f.u64("stats.sram_fill_bytes");
  s.sram_drain_bytes = f.u64("stats.sram_drain_bytes");
  s.router_hops = f.u64("stats.router_hops");
  s.edge_ops = f.u64("stats.edge_ops");
  s.vertex_ops = f.u64("stats.vertex_ops");
  s.interval_loads = f.u64("stats.interval_loads");
  s.interval_writebacks = f.u64("stats.interval_writebacks");

  r.bpg.gated_background_pj = f.num("power_gating.gated_background_pj");
  r.bpg.ungated_background_pj = f.num("power_gating.ungated_background_pj");
  r.bpg.wake_energy_pj = f.num("power_gating.wake_energy_pj");
  r.bpg.exposed_wake_time_ns = f.num("power_gating.exposed_wake_time_ns");
  r.bpg.bank_wakes = f.u64("power_gating.bank_wakes");
  // The awake/idle decomposition postdates the original schema; absent
  // fields (pre-ledger files) read as zero.
  if (f.has("power_gating.awake_background_pj"))
    r.bpg.awake_background_pj = f.num("power_gating.awake_background_pj");
  if (f.has("power_gating.idle_background_pj"))
    r.bpg.idle_background_pj = f.num("power_gating.idle_background_pj");

  // Attribution ledger (optional: pre-ledger files carry none).
  try {
    for (std::size_t i = 0;; ++i) {
      const std::string base = "energy_ledger." + std::to_string(i) + ".";
      if (!f.has(base + "component")) break;
      r.ledger.charge(component_from_name(f.str(base + "component")),
                      phase_from_name(f.str(base + "phase")),
                      f.str(base + "unit"), f.num(base + "pj"));
    }
    // Cells must re-sum to the breakdowns they claim to attribute
    // (looser than the runtime invariant: the parts were rounded).
    r.validate_ledger(1e-6);
  } catch (const InvariantError& e) {
    throw std::runtime_error(
        std::string("run_report_from_json: energy ledger invalid: ") +
        e.what());
  }

  // The derived fields must agree with the reconstructed components
  // (looser than the write precision: the totals re-sum rounded parts).
  if (!close(f.num("energy_pj"), r.total_energy_pj(), 1e-6) ||
      !close(f.num("mteps"), r.mteps(), 1e-6) ||
      !close(f.num("mteps_per_watt"), r.mteps_per_watt(), 1e-6))
    throw std::runtime_error(
        "run_report_from_json: derived fields inconsistent with components");
  // The per-phase breakdown must re-sum to the run totals (same
  // slack for the rounded parts).
  if (!close(r.phases.total_time_ns(), r.exec_time_ns, 1e-6) ||
      !close(r.phases.total_energy_pj(), r.total_energy_pj(), 1e-6))
    throw std::runtime_error(
        "run_report_from_json: phase breakdown inconsistent with totals");
  return r;
}

RunReport run_report_from_json(const std::string& json) {
  return run_report_from_fields(parse_flat_json(json), "");
}

bool reports_equivalent(const RunReport& a, const RunReport& b,
                        double rel_tol) {
  if (a.config_label != b.config_label || a.algorithm != b.algorithm ||
      a.num_intervals != b.num_intervals || a.iterations != b.iterations ||
      a.edges_traversed != b.edges_traversed || a.partitioner != b.partitioner)
    return false;
  if (!close(a.partition.n_avg, b.partition.n_avg, rel_tol) ||
      !close(a.partition.replication_factor, b.partition.replication_factor,
             rel_tol) ||
      !close(a.partition.interval_balance, b.partition.interval_balance,
             rel_tol) ||
      !close(a.partition.remote_edge_fraction,
             b.partition.remote_edge_fraction, rel_tol) ||
      !close(a.partition.bank_wake_fraction, b.partition.bank_wake_fraction,
             rel_tol))
    return false;
  if (!close(a.exec_time_ns, b.exec_time_ns, rel_tol) ||
      !close(a.streaming_time_ns, b.streaming_time_ns, rel_tol))
    return false;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    if (!close(a.energy[c], b.energy[c], rel_tol)) return false;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    if (!close(a.phases.time(p), b.phases.time(p), rel_tol) ||
        !close(a.phases.energy(p), b.phases.energy(p), rel_tol))
      return false;
  }
  const AccessStats& x = a.stats;
  const AccessStats& y = b.stats;
  if (x.edge_bytes_read != y.edge_bytes_read ||
      x.edge_stream_passes != y.edge_stream_passes ||
      x.offchip_vertex_bytes_read != y.offchip_vertex_bytes_read ||
      x.offchip_vertex_bytes_written != y.offchip_vertex_bytes_written ||
      x.offchip_vertex_random_reads != y.offchip_vertex_random_reads ||
      x.offchip_vertex_random_writes != y.offchip_vertex_random_writes ||
      x.sram_random_reads != y.sram_random_reads ||
      x.sram_random_writes != y.sram_random_writes ||
      x.sram_fill_bytes != y.sram_fill_bytes ||
      x.sram_drain_bytes != y.sram_drain_bytes ||
      x.router_hops != y.router_hops || x.edge_ops != y.edge_ops ||
      x.vertex_ops != y.vertex_ops || x.interval_loads != y.interval_loads ||
      x.interval_writebacks != y.interval_writebacks)
    return false;
  if (!(close(a.bpg.gated_background_pj, b.bpg.gated_background_pj,
              rel_tol) &&
        close(a.bpg.awake_background_pj, b.bpg.awake_background_pj,
              rel_tol) &&
        close(a.bpg.idle_background_pj, b.bpg.idle_background_pj, rel_tol) &&
        close(a.bpg.ungated_background_pj, b.bpg.ungated_background_pj,
              rel_tol) &&
        close(a.bpg.wake_energy_pj, b.bpg.wake_energy_pj, rel_tol) &&
        close(a.bpg.exposed_wake_time_ns, b.bpg.exposed_wake_time_ns,
              rel_tol) &&
        a.bpg.bank_wakes == b.bpg.bank_wakes))
    return false;
  // Ledgers must agree cell-for-cell (both empty is agreement too).
  const auto& la = a.ledger.cells();
  const auto& lb = b.ledger.cells();
  if (la.size() != lb.size()) return false;
  auto ita = la.begin();
  auto itb = lb.begin();
  for (; ita != la.end(); ++ita, ++itb) {
    if (ita->first.component != itb->first.component ||
        ita->first.phase != itb->first.phase ||
        ita->first.unit != itb->first.unit ||
        !close(ita->second, itb->second, rel_tol))
      return false;
  }
  return true;
}

std::string validated_report_json(const RunReport& report) {
  // Breakdowns can never silently drift from the totals: every record
  // any tool emits first proves its phase sums and its ledger marginals
  // (1e-9 relative).
  report.validate_phase_totals();
  report.validate_ledger();
  const std::string json = report_to_json(report);
  RunReport parsed;
  try {
    parsed = run_report_from_json(json);
  } catch (const std::exception& e) {
    throw std::runtime_error("report failed JSON round-trip validation (" +
                             report.config_label + "/" + report.algorithm +
                             "): " + e.what());
  }
  if (!reports_equivalent(parsed, report))
    throw std::runtime_error(
        "report failed JSON round-trip validation: parsed record differs "
        "for " +
        report.config_label + "/" + report.algorithm);
  return json;
}

}  // namespace hyve
