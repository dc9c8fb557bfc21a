#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "util/check.hpp"
#include "util/json.hpp"

namespace hyve::obs {

namespace {

void write_number(std::ostream& os, double v) {
  HYVE_CHECK_MSG(std::isfinite(v), "non-finite value in trace");
  os << std::setprecision(12) << v;
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":";
  write_json_string(os, e.name);
  if (!e.cat.empty()) {
    os << ",\"cat\":";
    write_json_string(os, e.cat);
  }
  os << ",\"ph\":\"" << e.ph << "\"";
  // ts/dur are microseconds in the trace-event format; simulated
  // nanoseconds keep sub-us resolution through the fractional part.
  os << ",\"ts\":";
  write_number(os, e.ts_ns / 1e3);
  if (e.ph == 'X') {
    os << ",\"dur\":";
    write_number(os, e.dur_ns / 1e3);
  }
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (!e.args.empty() || !e.raw_args.empty()) {
    os << ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : e.args) {
      if (!first) os << ',';
      first = false;
      write_json_string(os, key);
      os << ':';
      write_number(os, value);
    }
    if (!e.raw_args.empty()) {
      if (!first) os << ',';
      os << e.raw_args;
    }
    os << '}';
  }
  os << '}';
}

}  // namespace

void Trace::append(TraceEvent event) {
  const std::scoped_lock lock(mu_);
  events_.push_back(std::move(event));
}

void Trace::complete(std::uint32_t pid, std::uint32_t tid, std::string name,
                     std::string cat, double ts_ns, double dur_ns,
                     std::vector<std::pair<std::string, double>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  append(std::move(e));
}

void Trace::instant(std::uint32_t pid, std::uint32_t tid, std::string name,
                    std::string cat, double ts_ns,
                    std::vector<std::pair<std::string, double>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'i';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  append(std::move(e));
}

void Trace::counter(std::uint32_t pid, std::uint32_t tid, std::string name,
                    double ts_ns,
                    std::vector<std::pair<std::string, double>> series) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = "counter";
  e.ph = 'C';
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(series);
  append(std::move(e));
}

void Trace::thread_name(std::uint32_t pid, std::uint32_t tid,
                        std::string name) {
  TraceEvent e;
  e.name = "thread_name";
  e.ph = 'M';
  e.pid = pid;
  e.tid = tid;
  std::ostringstream arg;
  arg << "\"name\":";
  write_json_string(arg, name);
  e.raw_args = arg.str();
  append(std::move(e));
}

void Trace::process_name(std::uint32_t pid, std::string name) {
  TraceEvent e;
  e.name = "process_name";
  e.ph = 'M';
  e.pid = pid;
  std::ostringstream arg;
  arg << "\"name\":";
  write_json_string(arg, name);
  e.raw_args = arg.str();
  append(std::move(e));
}

void Trace::metadata(
    std::string name,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.ph = 'M';
  std::ostringstream rendered;
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) rendered << ',';
    first = false;
    write_json_string(rendered, key);
    rendered << ':';
    write_json_string(rendered, value);
  }
  e.raw_args = rendered.str();
  append(std::move(e));
}

std::size_t Trace::events() const {
  const std::scoped_lock lock(mu_);
  return events_.size();
}

void Trace::write(std::ostream& os, bool truncated) const {
  // Copy under the lock: the flight recorder writes while sweep workers
  // may still append, and an append can reallocate events_ out from
  // under borrowed pointers.
  std::vector<TraceEvent> snapshot;
  {
    const std::scoped_lock lock(mu_);
    snapshot = events_;
  }
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(snapshot.size());
  for (const TraceEvent& e : snapshot) ordered.push_back(&e);
  // Metadata first, then (pid, tid, ts, name): every track reads in
  // non-decreasing timestamp order and the byte stream is independent
  // of append interleaving.
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     const int ma = a->ph == 'M' ? 0 : 1;
                     const int mb = b->ph == 'M' ? 0 : 1;
                     return std::tie(ma, a->pid, a->tid, a->ts_ns, a->name) <
                            std::tie(mb, b->pid, b->tid, b->ts_ns, b->name);
                   });
  os << "{\"displayTimeUnit\":\"ns\",";
  if (truncated) os << "\"truncated\":true,";
  os << "\"traceEvents\":[\n";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (i > 0) os << ",\n";
    write_event(os, *ordered[i]);
  }
  os << "\n]}\n";
}

void Trace::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace file " + path);
  write(os);
  if (!os.good()) throw std::runtime_error("failed writing trace " + path);
}

void Trace::write_file_atomic(const std::string& path,
                              bool truncated) const {
  const std::string tmp = path + ".part";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open trace file " + tmp);
    write(os, truncated);
    if (!os.good())
      throw std::runtime_error("failed writing trace " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot publish trace " + path);
}

}  // namespace hyve::obs
