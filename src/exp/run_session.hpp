// One run's observability wiring, shared by hyve_sim, hyve_experiments
// and every bench binary (src/exp).
//
// A RunSession registers the shared flags on the binary's ArgParser:
//
//   --metrics             dump the metrics registry to stderr
//   --host-profile        wall-clock spans, RSS sampling, stage rates
//   --trace PATH          Chrome trace-event JSON of the run
//   --live-status SPEC    periodic status snapshots for hyve_top
//
// start() turns on what they ask for and finish() writes and stops it,
// in the order every binary needs: the host profiler stops before the
// trace is written, so host.wall_us lands in both the trace and the
// --metrics dump, and live telemetry stops last, so its final "done"
// snapshot sees the finished run. Any durable output arms the flight
// recorder: on SIGINT/SIGTERM it stops live telemetry with an
// "interrupted" snapshot, writes a truncated trace and the binary's own
// partial outputs, dumps the registry, and exits with
// obs::kFlightRecordExitCode.
//
// The recorder runs on its own thread while main() is mid-run, so it
// holds the session's state by shared_ptr and the save hook by value:
// nothing it calls can dangle. Copies of a session share its state.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "util/cli.hpp"

namespace hyve::obs {
class Trace;
}  // namespace hyve::obs

namespace hyve::exp {

class RunSession {
 public:
  // A session with no flags: start() and finish() do nothing.
  RunSession();
  // Registers the shared flags on `parser`. `program` names the binary
  // in live snapshots and flight-record messages.
  RunSession(cli::ArgParser& parser, std::string program);

  // Call after parsing. `save` writes the binary's own durable output
  // (the bench --json report): finish() calls it after writing the
  // trace, and the flight recorder calls it from its thread, so it must
  // own everything it reads. A non-empty `save` also enables the metrics
  // registry and arms the flight recorder.
  void start(int argc, char** argv, std::function<void()> save = {});

  // Call at the end of main(): stops the host profiler, writes the
  // trace, calls `save`, dumps --metrics, and stops live telemetry.
  void finish() const;

  // The --trace sink, or null without --trace.
  obs::Trace* trace() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace hyve::exp
