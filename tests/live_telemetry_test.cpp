// Live telemetry (src/obs/live): --live-status parsing, snapshot schema
// round-trips, the stall watchdog, the byte-identical --jobs guarantee
// with live telemetry enabled, and the SIGTERM flight-record path driven
// end-to-end through a real bench binary and hyve_experiments. Runs
// under TSan in CI via the "sweep-engine" ctest label.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report_io.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hyve {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class LiveStatusFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hyve_live_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    status_ = (dir_ / "status.json").string();
  }

  void TearDown() override {
    obs::live_telemetry().stop("done");  // idempotent safety net
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  std::string status_;
};

TEST(ParseLiveStatus, AcceptsPathAndOptionalIntervals) {
  auto opts = obs::parse_live_status("/tmp/s.json");
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->path, "/tmp/s.json");
  EXPECT_EQ(opts->interval, std::chrono::milliseconds(500));
  EXPECT_EQ(opts->stall_after, std::chrono::milliseconds(0));

  opts = obs::parse_live_status("s.json,250");
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->interval, std::chrono::milliseconds(250));

  opts = obs::parse_live_status("s.json,250,1250");
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->interval, std::chrono::milliseconds(250));
  EXPECT_EQ(opts->stall_after, std::chrono::milliseconds(1250));
}

TEST(ParseLiveStatus, RejectsMalformedSpecs) {
  EXPECT_FALSE(obs::parse_live_status("").has_value());
  EXPECT_FALSE(obs::parse_live_status(",250").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,0").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,abc").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,250,0").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,250,abc").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,250,100,9").has_value());
  EXPECT_FALSE(obs::parse_live_status("s.json,9999999999").has_value());
}

TEST_F(LiveStatusFile, SnapshotSchemaRoundTrips) {
  obs::LiveStatusOptions opts;
  opts.path = status_;
  opts.interval = std::chrono::minutes(10);  // no periodic interference
  opts.bench = "live_test";
  obs::LiveTelemetry& live = obs::live_telemetry();
  live.start(opts);
  live.add_total_cells(4);
  live.begin_cell(2);
  live.cell_done();
  live.write_snapshot("running");

  const auto fields = parse_flat_json(slurp(status_));
  EXPECT_EQ(fields.at("schema"), "hyve-live-status");
  EXPECT_EQ(fields.at("version"), "1");
  EXPECT_EQ(fields.at("state"), "running");
  EXPECT_EQ(fields.at("bench"), "live_test");
  EXPECT_EQ(fields.at("pid"), std::to_string(::getpid()));
  EXPECT_EQ(fields.at("progress.done"), "1");
  EXPECT_EQ(fields.at("progress.total"), "4");
  EXPECT_NE(fields.find("progress.eta_ms"), fields.end());
  EXPECT_NE(fields.find("wall_ms"), fields.end());
  EXPECT_NE(fields.find("rss_kb"), fields.end());
  EXPECT_NE(fields.find("rss_history.0"), fields.end());
  // This thread registered a worker slot via begin_cell.
  EXPECT_EQ(fields.at("workers.0.cell"), "2");
  EXPECT_EQ(fields.at("workers.0.stalled"), "false");
  // The service's own instruments are pre-registered at start().
  EXPECT_NE(fields.find("metrics.live.snapshots"), fields.end());
  EXPECT_NE(fields.find("metrics.live.stalls"), fields.end());

  live.end_cell();
  live.stop("done");
  const auto done = parse_flat_json(slurp(status_));
  EXPECT_EQ(done.at("state"), "done");
  EXPECT_EQ(done.at("progress.done"), "2");  // end_cell counted one more
  EXPECT_EQ(done.at("workers.0.phase"), "idle");
}

TEST_F(LiveStatusFile, WatchdogFlagsSilentWorker) {
  obs::LiveStatusOptions opts;
  opts.path = status_;
  opts.interval = std::chrono::milliseconds(20);
  opts.stall_after = std::chrono::milliseconds(50);
  opts.bench = "watchdog_test";
  obs::LiveTelemetry& live = obs::live_telemetry();
  live.start(opts);

  // Register a heartbeat source that immediately goes silent. The slot
  // outlives its thread, so the periodic watchdog sees its age grow.
  std::thread stalled_worker([&] {
    live.add_total_cells(1);
    live.begin_cell(0);
    live.beat("test.stall");
  });
  stalled_worker.join();

  bool flagged = false;
  for (int i = 0; i < 200 && !flagged; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string text = slurp(status_);
    if (text.empty()) continue;  // racing the rename
    const auto fields = parse_flat_json(text);
    for (const auto& [key, value] : fields) {
      if (key.size() > 8 && key.rfind(".stalled") == key.size() - 8 &&
          key.rfind("workers.", 0) == 0 && value == "true")
        flagged = true;
    }
    if (flagged) EXPECT_GE(std::stoi(fields.at("stalled")), 1);
  }
  EXPECT_TRUE(flagged) << "watchdog never flagged the silent worker";

  live.stop("done");
}

TEST_F(LiveStatusFile, SweepOutputByteIdenticalAcrossJobsWithLiveOn) {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram()};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"g1", "g2"};

  const auto run = [&](int jobs) {
    obs::LiveStatusOptions opts;
    opts.path = status_;
    opts.interval = std::chrono::milliseconds(5);
    opts.bench = "jobs_test";
    obs::live_telemetry().start(opts);
    exp::GraphCache graphs;
    graphs.add("g1", [] { return generate_rmat(12000, 70000, {}, 101); });
    graphs.add("g2",
               [] { return generate_erdos_renyi(12000, 70000, 103); });
    exp::PartitionCache partitions;
    exp::SweepEngine engine(graphs, partitions);
    std::ostringstream os;
    exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
    exp::SweepOptions options;
    options.jobs = jobs;
    engine.run(spec, options, &sink);
    obs::live_telemetry().stop("done");
    return os.str();
  };

  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // The last session's final snapshot accounts for every cell.
  const auto fields = parse_flat_json(slurp(status_));
  EXPECT_EQ(fields.at("state"), "done");
  EXPECT_EQ(fields.at("progress.done"), std::to_string(spec.size()));
  EXPECT_EQ(fields.at("progress.total"), std::to_string(spec.size()));
}

TEST(TraceAnyState, EmptyTraceWritesValidJson) {
  obs::Trace trace;
  std::ostringstream os;
  trace.write(os, /*truncated=*/true);
  const auto fields = parse_flat_json(os.str());
  EXPECT_EQ(fields.at("truncated"), "true");
  EXPECT_EQ(fields.at("displayTimeUnit"), "ns");
}

TEST(TraceAnyState, TruncatedTraceKeepsEventsParseable) {
  obs::Trace trace;
  trace.process_name(1, "unit");
  trace.complete(1, 0, "phase \"quoted\"", "sim", 10, 20);
  std::ostringstream os;
  trace.write(os, /*truncated=*/true);
  const auto fields = parse_flat_json(os.str());
  EXPECT_EQ(fields.at("truncated"), "true");
  bool found_event = false;
  for (const auto& [key, value] : fields)
    if (key.rfind("traceEvents.", 0) == 0 && value == "X")
      found_event = true;
  EXPECT_TRUE(found_event);

  // The non-truncated overload omits the marker.
  std::ostringstream plain;
  trace.write(plain);
  EXPECT_EQ(parse_flat_json(plain.str()).count("truncated"), 0u);
}

TEST(RegistrySchema, ListsEveryInstrumentWithItsKind) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::registry().counter("schema_test.counter").add();
  obs::registry().gauge("schema_test.gauge").set(7);
  obs::registry().histogram("schema_test.histogram").observe(1);
  const auto schema = obs::registry().schema();
  obs::set_enabled(was_enabled);

  ASSERT_FALSE(schema.empty());
  EXPECT_TRUE(std::is_sorted(schema.begin(), schema.end()));
  const auto kind_of = [&](const std::string& name) -> std::string {
    for (const auto& [n, kind] : schema)
      if (n == name) return kind;
    return "";
  };
  EXPECT_EQ(kind_of("schema_test.counter"), "counter");
  EXPECT_EQ(kind_of("schema_test.gauge"), "gauge");
  EXPECT_EQ(kind_of("schema_test.histogram"), "histogram");
}

#if defined(HYVE_BENCH_BIN) && defined(HYVE_EXPERIMENTS_BIN)
// Starts `args` (args[0] is the binary) with stdout sent to
// `stdout_path`, waits until its status file reports a finished cell,
// then SIGTERMs it and reaps its exit code. Skips the test when the run
// completes before the signal can land.
void interrupt_mid_run(const std::vector<std::string>& args,
                       const std::string& status,
                       const std::string& stdout_path, int* exit_code) {
  // Everything the child touches is built before fork(): it may only
  // exec.
  std::vector<char*> argv;
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::freopen(stdout_path.c_str(), "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed
  }
  // Wait until at least one cell has finished so the partial outputs
  // are non-empty, then interrupt.
  bool saw_progress = false;
  for (int i = 0; i < 600 && !saw_progress; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int wstatus = 0;
    if (::waitpid(child, &wstatus, WNOHANG) == child) {
      // The full grid finished before any poll fired — can't exercise
      // the interrupt path on this machine.
      GTEST_SKIP() << args[0] << " finished before SIGTERM could be sent";
    }
    const std::string text = slurp(status);
    if (text.empty()) continue;
    const auto fields = parse_flat_json(text);
    const auto done = fields.find("progress.done");
    if (done != fields.end() && done->second != "0") saw_progress = true;
  }
  ASSERT_TRUE(saw_progress) << args[0] << " made no progress within 30 s";

  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  if (WEXITSTATUS(wstatus) == 0)
    GTEST_SKIP() << args[0] << " completed before the signal landed";
  *exit_code = WEXITSTATUS(wstatus);
}

TEST_F(LiveStatusFile, SigtermFlightRecordSavesPartialOutputs) {
  const std::string trace = (dir_ / "trace.json").string();
  const std::string report = (dir_ / "report.json").string();
  int exit_code = 0;
  interrupt_mid_run({HYVE_BENCH_BIN, "--jobs", "2", "--live-status",
                     status_ + ",30", "--json", report, "--trace", trace},
                    status_, "/dev/null", &exit_code);
  if (HasFatalFailure() || IsSkipped()) return;
  EXPECT_EQ(exit_code, obs::kFlightRecordExitCode);

  // Truncated trace: valid JSON with the truncation marker.
  const auto trace_fields = parse_flat_json(slurp(trace));
  EXPECT_EQ(trace_fields.at("truncated"), "true");

  // Partial report: parseable, with at least one complete run record.
  const auto report_fields = parse_flat_json(slurp(report));
  EXPECT_EQ(report_fields.at("schema"), "hyve-bench-report");
  ASSERT_NE(report_fields.find("runs.0.report.config"),
            report_fields.end());
  EXPECT_NO_THROW(run_report_from_fields(report_fields, "runs.0.report."));

  // Final snapshot reports the interruption.
  const auto status_fields = parse_flat_json(slurp(status_));
  EXPECT_EQ(status_fields.at("state"), "interrupted");
}

// The same flight path through hyve_experiments, whose own partial
// output is the JSONL already written to stdout.
TEST_F(LiveStatusFile, SigtermFlightRecordKeepsSweepRecords) {
  const std::string trace = (dir_ / "trace.json").string();
  const std::string records = (dir_ / "records.jsonl").string();
  int exit_code = 0;
  interrupt_mid_run({HYVE_EXPERIMENTS_BIN, "--jobs", "1", "--trace", trace,
                     "--live-status", status_ + ",30"},
                    status_, records, &exit_code);
  if (HasFatalFailure() || IsSkipped()) return;
  EXPECT_EQ(exit_code, obs::kFlightRecordExitCode);

  EXPECT_EQ(parse_flat_json(slurp(trace)).at("truncated"), "true");
  EXPECT_EQ(parse_flat_json(slurp(status_)).at("state"), "interrupted");

  // Every finished record reached the file intact; a signal may cut
  // the last line short, so only newline-terminated lines count.
  const std::string text = slurp(records);
  std::size_t complete = 0;
  for (std::size_t begin = 0, end; (end = text.find('\n', begin)) !=
                                   std::string::npos;
       begin = end + 1) {
    EXPECT_NO_THROW(run_report_from_json(text.substr(begin, end - begin)));
    ++complete;
  }
  EXPECT_GT(complete, 0u);
}
#endif  // HYVE_BENCH_BIN && HYVE_EXPERIMENTS_BIN

}  // namespace
}  // namespace hyve
