#include "obs/live.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "obs/host_profiler.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace hyve::obs {

namespace {

// Thread → slot binding. The session stamp invalidates cached slots
// across stop()/start() cycles (slots_ is cleared, the old pointer is
// gone), so a pool thread that outlives a session re-registers cleanly.
struct TlsWorker {
  std::uint64_t session = 0;
  LiveTelemetry::WorkerSlot* slot = nullptr;
};
thread_local TlsWorker tls_worker;

}  // namespace

std::optional<LiveStatusOptions> parse_live_status(const std::string& spec) {
  LiveStatusOptions out;
  std::vector<std::string> fields;
  std::string::size_type start = 0;
  while (true) {
    const auto comma = spec.find(',', start);
    fields.push_back(spec.substr(
        start, comma == std::string::npos ? comma : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (fields.empty() || fields.size() > 3 || fields[0].empty())
    return std::nullopt;
  out.path = fields[0];
  const auto parse_ms =
      [](const std::string& s) -> std::optional<std::chrono::milliseconds> {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
      return std::nullopt;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno != 0 || v == 0 || v > 3600000ull) return std::nullopt;
    return std::chrono::milliseconds(v);
  };
  if (fields.size() >= 2) {
    const auto ms = parse_ms(fields[1]);
    if (!ms) return std::nullopt;
    out.interval = *ms;
  }
  if (fields.size() >= 3) {
    const auto ms = parse_ms(fields[2]);
    if (!ms) return std::nullopt;
    out.stall_after = *ms;
  }
  return out;
}

std::int64_t LiveTelemetry::elapsed_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LiveTelemetry::start(const LiveStatusOptions& options) {
  if (enabled()) return;
  options_ = options;
  if (options_.stall_after.count() <= 0)
    options_.stall_after =
        std::max(10 * options_.interval, std::chrono::milliseconds(5000));
  epoch_ = std::chrono::steady_clock::now();
  total_cells_.store(0, std::memory_order_relaxed);
  done_cells_.store(0, std::memory_order_relaxed);
  snapshots_.store(0, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(slots_mu_);
    slots_.clear();
  }
  {
    const std::scoped_lock lock(write_mu_);
    trail_.clear();
    rss_history_.clear();
  }
  {
    const std::scoped_lock lock(cv_mu_);
    stop_requested_ = false;
  }
  session_.fetch_add(1, std::memory_order_release);
  // Pre-register the live.* instruments: the metric census and the
  // first snapshot list them whether or not a stall ever happens.
  registry().counter("live.snapshots");
  registry().counter("live.stalls");
  enabled_.store(true, std::memory_order_release);
  write_snapshot("running");
  snapshot_thread_ = std::thread([this] { snapshot_loop(); });
}

void LiveTelemetry::stop(const char* final_state) {
  if (!enabled()) return;
  {
    const std::scoped_lock lock(cv_mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  write_snapshot(final_state);
  enabled_.store(false, std::memory_order_release);
}

LiveTelemetry::~LiveTelemetry() {
  // Best-effort teardown for a process exiting without stop(); the last
  // published snapshot simply keeps saying "running".
  {
    const std::scoped_lock lock(cv_mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
}

void LiveTelemetry::snapshot_loop() {
  std::unique_lock lock(cv_mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, options_.interval,
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    write_snapshot("running");
    lock.lock();
  }
}

LiveTelemetry::WorkerSlot& LiveTelemetry::slot_for_this_thread() {
  const std::uint64_t session = session_.load(std::memory_order_acquire);
  if (tls_worker.slot == nullptr || tls_worker.session != session) {
    const std::scoped_lock lock(slots_mu_);
    auto slot = std::make_unique<WorkerSlot>();
    slot->id = slots_.size();
    slot->last_beat_us.store(elapsed_us(), std::memory_order_relaxed);
    tls_worker.slot = slot.get();
    tls_worker.session = session;
    slots_.push_back(std::move(slot));
  }
  return *tls_worker.slot;
}

void LiveTelemetry::add_total_cells(std::uint64_t n) {
  if (!enabled()) return;
  total_cells_.fetch_add(n, std::memory_order_relaxed);
}

void LiveTelemetry::cell_done() {
  if (!enabled()) return;
  done_cells_.fetch_add(1, std::memory_order_relaxed);
}

void LiveTelemetry::beat(const char* phase) {
  if (!enabled()) return;
  WorkerSlot& slot = slot_for_this_thread();
  slot.phase.store(phase, std::memory_order_relaxed);
  slot.last_beat_us.store(elapsed_us(), std::memory_order_relaxed);
}

void LiveTelemetry::begin_cell(std::uint64_t cell) {
  if (!enabled()) return;
  WorkerSlot& slot = slot_for_this_thread();
  slot.cell.store(cell, std::memory_order_relaxed);
  slot.phase.store("cell", std::memory_order_relaxed);
  slot.last_beat_us.store(elapsed_us(), std::memory_order_relaxed);
}

void LiveTelemetry::end_cell() {
  if (!enabled()) return;
  done_cells_.fetch_add(1, std::memory_order_relaxed);
  WorkerSlot& slot = slot_for_this_thread();
  slot.cell.store(kNoCell, std::memory_order_relaxed);
  slot.phase.store("idle", std::memory_order_relaxed);
  slot.last_beat_us.store(elapsed_us(), std::memory_order_relaxed);
}

std::size_t LiveTelemetry::run_watchdog(std::int64_t now_us) {
  const std::int64_t stall_us = std::chrono::duration_cast<
      std::chrono::microseconds>(options_.stall_after).count();
  std::size_t stalled = 0;
  const std::scoped_lock lock(slots_mu_);
  for (const auto& slot : slots_) {
    const std::int64_t age =
        now_us - slot->last_beat_us.load(std::memory_order_relaxed);
    const bool was_stalled = slot->stalled.load(std::memory_order_relaxed);
    if (age > stall_us && !was_stalled) {
      slot->stalled.store(true, std::memory_order_relaxed);
      static Counter& stalls = registry().counter("live.stalls");
      stalls.add();
      const std::uint64_t cell = slot->cell.load(std::memory_order_relaxed);
      std::ostringstream msg;
      msg << "live: worker " << slot->id << " stalled for " << age / 1000
          << " ms in phase \"" << slot->phase.load(std::memory_order_relaxed)
          << "\"";
      if (cell != kNoCell) msg << " (cell " << cell << ")";
      log_line(LogLevel::kWarn, msg.str());
    } else if (age <= stall_us && was_stalled) {
      slot->stalled.store(false, std::memory_order_relaxed);
      std::ostringstream msg;
      msg << "live: worker " << slot->id << " recovered";
      log_line(LogLevel::kWarn, msg.str());
    }
    if (slot->stalled.load(std::memory_order_relaxed)) ++stalled;
  }
  return stalled;
}

void LiveTelemetry::write_snapshot(const char* state) {
  if (!enabled()) return;
  const std::scoped_lock lock(write_mu_);
  const std::int64_t now_us = elapsed_us();
  const double wall_ms = static_cast<double>(now_us) / 1000.0;
  const std::uint64_t done = done_cells_.load(std::memory_order_relaxed);
  const std::uint64_t total = total_cells_.load(std::memory_order_relaxed);

  // Trailing throughput over the last ~32 samples drives the ETA, so it
  // tracks the current phase instead of averaging over a cold start.
  trail_.emplace_back(wall_ms, done);
  while (trail_.size() > 32) trail_.pop_front();
  double cells_per_s = 0.0;
  if (trail_.size() >= 2) {
    const double dt_ms = trail_.back().first - trail_.front().first;
    const double dn = static_cast<double>(trail_.back().second -
                                          trail_.front().second);
    if (dt_ms > 0.0 && dn > 0.0) cells_per_s = dn * 1000.0 / dt_ms;
  }
  // -1 = unknown (no throughput signal yet); hyve_top renders "--".
  double eta_ms = -1.0;
  if (cells_per_s > 0.0 && total >= done)
    eta_ms = static_cast<double>(total - done) * 1000.0 / cells_per_s;

  const bool running = std::string_view(state) == "running";
  const std::size_t stalled_now = running ? run_watchdog(now_us) : 0;

  const HostMemSample mem = read_host_memory();
  rss_history_.push_back(mem.rss_kb);
  if (rss_history_.size() > 60)
    rss_history_.erase(rss_history_.begin(),
                       rss_history_.end() - 60);

  std::ostringstream os;
  os << "{\"schema\":\"hyve-live-status\",\"version\":1,"
     << "\"state\":\"" << state << "\",\"bench\":";
  write_json_string(os, options_.bench);
  os << ",\"pid\":" << ::getpid() << ",\"wall_ms\":" << wall_ms
     << ",\"interval_ms\":" << options_.interval.count()
     << ",\"stall_after_ms\":" << options_.stall_after.count()
     << ",\"snapshot\":" << snapshots_.load(std::memory_order_relaxed) + 1
     << ",\"progress\":{\"done\":" << done << ",\"total\":" << total
     << ",\"cells_per_s\":" << cells_per_s << ",\"eta_ms\":" << eta_ms
     << "},\"stalled\":" << stalled_now << ",\"rss_kb\":" << mem.rss_kb
     << ",\"peak_rss_kb\":" << mem.peak_rss_kb << ",\"rss_history\":[";
  for (std::size_t i = 0; i < rss_history_.size(); ++i) {
    if (i > 0) os << ',';
    os << rss_history_[i];
  }
  os << "],\"workers\":[";
  {
    const std::scoped_lock slots_lock(slots_mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const WorkerSlot& slot = *slots_[i];
      const std::uint64_t cell = slot.cell.load(std::memory_order_relaxed);
      const std::int64_t age =
          now_us - slot.last_beat_us.load(std::memory_order_relaxed);
      if (i > 0) os << ',';
      os << "{\"id\":" << slot.id << ",\"phase\":";
      write_json_string(os, slot.phase.load(std::memory_order_relaxed));
      os << ",\"cell\":";
      if (cell == kNoCell)
        os << -1;
      else
        os << cell;
      os << ",\"age_ms\":" << static_cast<double>(age) / 1000.0
         << ",\"stalled\":"
         << (slot.stalled.load(std::memory_order_relaxed) ? "true"
                                                          : "false")
         << '}';
    }
  }
  os << "],\"metrics\":{";
  {
    // The registry dump's "name=value" lines re-render directly as JSON
    // members: names are identifier-ish and values are numeric tokens.
    std::istringstream dump(registry().dump_string());
    std::string line;
    bool first = true;
    while (std::getline(dump, line)) {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) continue;
      if (!first) os << ',';
      first = false;
      write_json_string(os, line.substr(0, eq));
      os << ':' << line.substr(eq + 1);
    }
  }
  os << "}}\n";

  const std::string tmp = options_.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      log_line(LogLevel::kWarn,
               "live: cannot write status file " + tmp);
      return;
    }
    out << os.str();
    if (!out.good()) return;
  }
  if (std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    log_line(LogLevel::kWarn,
             "live: cannot publish status file " + options_.path);
    return;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  static Counter& published = registry().counter("live.snapshots");
  published.add();
}

LiveTelemetry& live_telemetry() {
  static LiveTelemetry instance;
  return instance;
}

// ---------------------------------------------------------------------------
// Flight recorder.

namespace {

std::atomic<int> g_flight_signal{0};
int g_flight_pipe_write = -1;
std::mutex g_flight_mu;  // guards g_flight_save / g_flight_installed
std::function<void(int)> g_flight_save;
bool g_flight_installed = false;

// Async-signal-safe by construction: one lock-free CAS plus one write()
// into the self-pipe. Everything else happens on the recorder thread.
void flight_signal_handler(int signum) {
  int expected = 0;
  if (g_flight_signal.compare_exchange_strong(expected, signum,
                                              std::memory_order_relaxed)) {
    const unsigned char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_flight_pipe_write, &byte, 1);
  }
  // A hooked abort would re-raise with the default action as soon as
  // this handler returns, killing the process before the recorder
  // finishes saving; park the faulting thread instead — the recorder
  // _exit()s underneath it.
  if (signum == SIGABRT)
    while (true) ::pause();
}

const char* flight_signal_name(int signum) {
  switch (signum) {
    case SIGINT: return "SIGINT";
    case SIGTERM: return "SIGTERM";
    case SIGABRT: return "SIGABRT";
    default: return "signal";
  }
}

}  // namespace

void install_flight_recorder(std::function<void(int)> save) {
  const char* mode_env = std::getenv("HYVE_FLIGHT_RECORD");
  const std::string mode = mode_env != nullptr ? mode_env : "";
  if (mode == "off") return;
  {
    const std::scoped_lock lock(g_flight_mu);
    g_flight_save = std::move(save);
    if (g_flight_installed) return;  // handlers + thread already armed
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    log_line(LogLevel::kWarn,
             "flight record: pipe() failed, recorder not armed");
    return;
  }
  g_flight_pipe_write = fds[1];
  const int read_fd = fds[0];
  {
    const std::scoped_lock lock(g_flight_mu);
    g_flight_installed = true;
  }
  std::thread([read_fd] {
    unsigned char byte = 0;
    while (true) {
      const ssize_t n = ::read(read_fd, &byte, 1);
      if (n == 1) break;
      if (n < 0 && errno == EINTR) continue;
      return;  // pipe gone — nothing to record
    }
    const int signum = g_flight_signal.load(std::memory_order_relaxed);
    log_line(LogLevel::kWarn,
             std::string("flight record: caught ") +
                 flight_signal_name(signum) +
                 ", finalizing partial outputs");
    std::function<void(int)> callback;
    {
      const std::scoped_lock lock(g_flight_mu);
      callback = g_flight_save;
    }
    if (callback) {
      try {
        callback(signum);
      } catch (const std::exception& e) {
        log_line(LogLevel::kError,
                 std::string("flight record: save failed: ") + e.what());
      } catch (...) {
        log_line(LogLevel::kError, "flight record: save failed");
      }
    }
    std::cout.flush();
    std::cerr.flush();
    ::_exit(kFlightRecordExitCode);
  }).detach();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = flight_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  if (mode == "abort") ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace hyve::obs
