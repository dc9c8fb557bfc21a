#include "exp/run_session.hpp"

#include <exception>
#include <iostream>
#include <optional>
#include <utility>

#include "algos/frontier.hpp"
#include "core/bench_json.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hyve::exp {

struct RunSession::State {
  std::string program;
  bool metrics = false;
  bool host_profile = false;
  std::string trace_path;
  std::optional<obs::LiveStatusOptions> live;
  std::shared_ptr<obs::Trace> trace;  // set by start() under --trace
  std::function<void()> save;

  // Runs once on the flight recorder's thread while workers still run.
  // The trace and the saved output go through temp + rename, so nothing
  // is ever half-written.
  void flight_save(int signum) const {
    if (live) obs::live_telemetry().stop("interrupted");
    if (host_profile) obs::host_profiler().stop();
    if (trace) {
      try {
        trace->write_file_atomic(trace_path, /*truncated=*/true);
        std::cerr << program << ": flight-recorded truncated trace "
                  << trace_path << "\n";
      } catch (const std::exception& e) {
        std::cerr << program << ": trace flight record failed: " << e.what()
                  << "\n";
      }
    }
    if (save) {
      try {
        save();
      } catch (const std::exception& e) {
        std::cerr << program << ": output flight record failed: "
                  << e.what() << "\n";
      }
    }
    if (obs::enabled()) obs::registry().dump(std::cerr);
    std::cerr << program << ": flight record complete (signal " << signum
              << ")\n";
  }
};

RunSession::RunSession() : state_(std::make_shared<State>()) {}

RunSession::RunSession(cli::ArgParser& parser, std::string program)
    : RunSession() {
  State* s = state_.get();
  s->program = std::move(program);
  parser.flag("--metrics",
              "dump the metrics registry to stderr as sorted key=value "
              "lines",
              &s->metrics);
  parser.flag("--host-profile",
              "profile the host process: wall-clock spans, RSS sampling "
              "and stage rates as host.* metrics (and a wall-clock trace "
              "track with --trace)",
              &s->host_profile);
  parser.option("--trace", "PATH",
                "write a Chrome trace-event JSON (chrome://tracing, "
                "Perfetto) of the run to PATH",
                [s](const std::string& v) { s->trace_path = v; });
  parser.option("--live-status", "PATH[,interval_ms[,stall_ms]]",
                "publish a live status JSON snapshot (progress, ETA, "
                "worker heartbeats, metrics, RSS) to PATH on the "
                "interval (default 500 ms); watch with hyve_top",
                [s, &parser](const std::string& v) {
                  s->live = obs::parse_live_status(v);
                  if (!s->live) parser.fail("bad --live-status spec " + v);
                });
  parser.flag("--no-pattern-reuse",
              "disable per-iteration pattern reuse in frontier runs "
              "(identical output, more host work)",
              [] { set_pattern_reuse_enabled(false); });
}

void RunSession::start(int argc, char** argv, std::function<void()> save) {
  State& s = *state_;
  s.save = std::move(save);
  // Telemetry is opt-in: the registry stays a single relaxed-load branch
  // in the hot paths unless an output reads it. Enabling happens before
  // any cell runs, so registry counters match the caches' own counts.
  if (s.metrics || s.host_profile || s.live || s.save) obs::set_enabled(true);
  if (!s.trace_path.empty()) {
    s.trace = std::make_shared<obs::Trace>();
    add_attribution_metadata(*s.trace, argc, argv);
  }
  if (s.host_profile) obs::host_profiler().start(s.trace.get());
  if (s.live) {
    s.live->bench = s.program;
    obs::live_telemetry().start(*s.live);
  }
  // Any run with durable outputs is worth flight-recording: partial
  // results are finalized instead of lost when the run is interrupted.
  if (s.trace || s.live || s.save)
    obs::install_flight_recorder(
        [state = state_](int signum) { state->flight_save(signum); });
}

void RunSession::finish() const {
  const State& s = *state_;
  if (s.host_profile) obs::host_profiler().stop();
  if (s.trace) s.trace->write_file(s.trace_path);
  if (s.save) s.save();
  if (s.metrics) obs::registry().dump(std::cerr);
  if (s.live) obs::live_telemetry().stop("done");
}

obs::Trace* RunSession::trace() const { return state_->trace.get(); }

}  // namespace hyve::exp
