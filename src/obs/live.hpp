// Live telemetry: the while-it-runs half of src/obs.
//
// Everything else in this layer is post-mortem — registry dumps, Chrome
// traces and bench reports appear only after the run exits, which is
// useless for watching a long sweep while it runs.
// LiveTelemetry closes that gap with three cooperating pieces:
//
//   * a snapshot thread that renders the current Registry values,
//     host RSS and sweep progress (cells done/total, ETA from trailing
//     throughput) into a JSON status file on a fixed interval, written
//     via temp-file + rename() so readers always see a complete
//     document (`--live-status PATH[,interval_ms[,stall_ms]]`);
//   * per-thread worker heartbeats (beat/begin_cell/end_cell) with a
//     watchdog that marks workers silent beyond `stall_after` as
//     stalled in the status file and logs the offender's cell/phase;
//   * a signal-safe flight recorder: on SIGINT/SIGTERM (and SIGABRT
//     when HYVE_FLIGHT_RECORD=abort) the handler only flips an atomic
//     and writes one byte into a pipe; a dedicated recorder thread then
//     finalizes the partial outputs (truncated trace, partial report,
//     final "interrupted" snapshot) and _exit()s with
//     kFlightRecordExitCode so callers can tell "killed with partial
//     results saved" from a crash.
//
// The status file and watchdog logs are explicitly wall-clock and
// non-deterministic; they never touch stdout or the deterministic
// --json/--trace bytes, so the byte-identical --jobs guarantee holds
// with live telemetry on or off. When disabled, every instrumented site
// costs one relaxed-class atomic load (the same contract as
// obs::enabled() and the host profiler). tools/hyve_top renders the
// status file in a terminal refresh loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace hyve::obs {

struct LiveStatusOptions {
  std::string path;  // status file; PATH + ".tmp" is the rename staging
  std::chrono::milliseconds interval{500};
  // A worker silent longer than this is flagged as stalled. 0 keeps the
  // derived default of max(10 × interval, 5 s).
  std::chrono::milliseconds stall_after{0};
  std::string bench;  // program name stamped into every snapshot
};

// Parses the --live-status value "PATH[,interval_ms[,stall_ms]]".
// Returns nullopt for an empty path or non-positive/non-numeric fields.
std::optional<LiveStatusOptions> parse_live_status(const std::string& spec);

class LiveTelemetry {
 public:
  static constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

  // One registered heartbeat source (a sweep worker thread, or the main
  // thread of a single run). Fields are atomics so beats stay lock-free
  // and the snapshot thread reads them without stopping the world.
  struct WorkerSlot {
    std::uint64_t id = 0;
    std::atomic<const char*> phase{"idle"};  // string literals only
    std::atomic<std::uint64_t> cell{kNoCell};
    std::atomic<std::int64_t> last_beat_us{0};
    std::atomic<bool> stalled{false};
  };

  // Begins a live session: resets progress and worker slots, writes an
  // immediate first snapshot, then starts the periodic snapshot thread.
  // A second start while running is ignored.
  void start(const LiveStatusOptions& options);

  // Joins the snapshot thread and writes one final snapshot with the
  // given state ("done", "interrupted"). Safe to call when not running.
  void stop(const char* final_state = "done");

  // Acquire pairs with start()'s release store, so a thread observing
  // the service enabled also observes the session it was started with.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Progress accounting. Totals accumulate across calls (a bench that
  // runs several grids announces each), so done/total stays monotone.
  void add_total_cells(std::uint64_t n);
  void cell_done();

  // Heartbeats from worker threads. `phase` must be a string literal
  // (stored by pointer). begin_cell/end_cell bracket one unit of work;
  // end_cell also counts it done.
  void beat(const char* phase);
  void begin_cell(std::uint64_t cell);
  void end_cell();

  // Renders and atomically publishes one snapshot now. The periodic
  // thread calls this with state "running"; tests call it directly.
  void write_snapshot(const char* state);

  // Snapshots successfully published this session.
  std::uint64_t snapshots() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

  ~LiveTelemetry();

 private:
  WorkerSlot& slot_for_this_thread();
  void snapshot_loop();
  // Flags/unflags stalled workers; returns the count currently stalled.
  std::size_t run_watchdog(std::int64_t now_us);
  std::int64_t elapsed_us() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> session_{0};
  std::chrono::steady_clock::time_point epoch_;
  LiveStatusOptions options_;

  std::atomic<std::uint64_t> total_cells_{0};
  std::atomic<std::uint64_t> done_cells_{0};
  std::atomic<std::uint64_t> snapshots_{0};

  std::mutex slots_mu_;  // guards the vector, not the slots
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  // Serialises snapshot rendering/publication (periodic thread vs an
  // explicit write_snapshot vs stop's final write).
  std::mutex write_mu_;
  std::deque<std::pair<double, std::uint64_t>> trail_;  // (wall_ms, done)
  std::vector<std::uint64_t> rss_history_;

  std::thread snapshot_thread_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
};

// The process-wide live telemetry service.
LiveTelemetry& live_telemetry();

// Exit status of a flight-recorded run: the process was interrupted but
// its partial outputs were finalized before exiting. Distinct from 0
// (completed), 1/2 (errors) and 128+sig (killed, nothing saved).
inline constexpr int kFlightRecordExitCode = 75;

// Arms the flight recorder: installs SIGINT/SIGTERM handlers (plus
// SIGABRT when HYVE_FLIGHT_RECORD=abort) and a recorder thread that runs
// `save(signum)` once, flushes stdio and _exit()s with
// kFlightRecordExitCode. The handler itself is async-signal-safe (one
// atomic CAS + one write() into a self-pipe); all real work happens on
// the recorder thread. HYVE_FLIGHT_RECORD=off disables installation.
// Calling again replaces the save callback; handlers install once.
void install_flight_recorder(std::function<void(int)> save);

}  // namespace hyve::obs
