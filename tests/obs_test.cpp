// Tests for the observability layer: the metrics registry, the Chrome
// trace-event writer, and the per-phase breakdown invariants they feed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/dram_timing.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

// Collection is process-global; tests that need it on scope it tightly
// so the rest of the binary keeps the disabled-by-default contract.
class EnabledScope {
 public:
  EnabledScope() : previous_(obs::enabled()) { obs::set_enabled(true); }
  ~EnabledScope() { obs::set_enabled(previous_); }

 private:
  bool previous_;
};

// The deterministic graph every trace test runs: seeded R-MAT, small
// enough that a full PageRank run takes milliseconds.
Graph test_graph() {
  return generate_rmat(/*num_vertices=*/2000, /*num_edges=*/10000, {},
                       /*seed=*/1);
}

// ---------- Registry ----------

TEST(Registry, CountersDropUpdatesWhileDisabled) {
  ASSERT_FALSE(obs::enabled());
  obs::Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 0u);

  const EnabledScope on;
  counter.add(41);
  counter.add();
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Registry, GaugeSetAndAdd) {
  const EnabledScope on;
  obs::Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Registry, HistogramTracksCountSumMinMax) {
  const EnabledScope on;
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty reads as 0, not the sentinel
  EXPECT_EQ(h.max(), 0u);
  for (const std::uint64_t sample : {5u, 2u, 9u, 2u}) h.observe(sample);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 18u);
  EXPECT_EQ(h.min(), 2u);
  EXPECT_EQ(h.max(), 9u);
}

TEST(Registry, HandlesAreStableAndNamesClaimOneKind) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("a.counter");
  EXPECT_EQ(&c, &reg.counter("a.counter"));
  EXPECT_THROW(reg.gauge("a.counter"), InvariantError);
  EXPECT_THROW(reg.histogram("a.counter"), InvariantError);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, DumpIsSortedKeyValueLines) {
  const EnabledScope on;
  obs::Registry reg;
  reg.counter("z.last").add(3);
  reg.gauge("m.middle").set(-7);
  reg.histogram("a.first").observe(10);
  reg.histogram("a.first").observe(4);

  EXPECT_EQ(reg.dump_string(),
            "a.first.avg=7\n"
            "a.first.count=2\n"
            "a.first.max=10\n"
            "a.first.min=4\n"
            "a.first.p50=4\n"
            "a.first.p95=10\n"
            "a.first.p99=10\n"
            "a.first.sum=14\n"
            "m.middle=-7\n"
            "z.last=3\n");
}

TEST(Registry, HistogramQuantilesAreDeterministicBucketBounds) {
  const EnabledScope on;
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty reads as 0
  for (std::uint64_t v = 1; v <= 8; ++v) h.observe(v);
  // Samples below 16 land in exact buckets: the quantile is the sample.
  EXPECT_EQ(h.quantile(0.5), 4u);
  EXPECT_EQ(h.quantile(0.99), 8u);

  // Large samples quantise to log-linear bucket lower bounds, within
  // one sub-bucket (6.25%) of the true value: 1000 -> octave 9,
  // sub-bucket 15 -> 512 + 15*32 = 992.
  obs::Histogram big;
  big.observe(1000);
  EXPECT_EQ(big.quantile(0.5), 992u);
  EXPECT_EQ(big.quantile(0.99), 992u);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  const EnabledScope on;
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  c.add(5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(reg.counter("c").value(), 2u);
}

// Run under the sweep-engine label so the TSan CI pass checks the
// lock-free update path.
TEST(Registry, ConcurrentUpdatesFromManyThreads) {
  const EnabledScope on;
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&reg, t] {
      // Half the threads race the name lookup too, not just the add.
      obs::Counter& shared = reg.counter("shared");
      obs::Histogram& h = reg.histogram("samples");
      for (int i = 0; i < kIncrements; ++i) {
        shared.add();
        h.observe(static_cast<std::uint64_t>(t + 1));
        reg.gauge("last_thread").set(t);
      }
    });
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(reg.histogram("samples").count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(reg.histogram("samples").min(), 1u);
  EXPECT_EQ(reg.histogram("samples").max(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(reg.gauge("last_thread").value(), 0);
  EXPECT_LT(reg.gauge("last_thread").value(), kThreads);
}

TEST(Registry, InstrumentedRunPopulatesGlobalRegistry) {
  const EnabledScope on;
  obs::registry().reset_values();
  const Graph graph = test_graph();
  HyveMachine(HyveConfig::hyve_opt()).run(graph, Algorithm::kPageRank);
  EXPECT_GT(obs::registry().counter("sim.pipeline.blocks").value(), 0u);
  EXPECT_GT(obs::registry().counter("sim.bpg.evaluations").value(), 0u);
}

// ---------- Trace schema ----------

// Minimal field extraction for the writer's one-event-per-line output.
double number_field(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const auto at = line.find(marker);
  HYVE_CHECK_MSG(at != std::string::npos,
                 "event missing \"" << key << "\": " << line);
  return std::strtod(line.c_str() + at + marker.size(), nullptr);
}

std::vector<std::string> event_lines(const std::string& doc) {
  std::vector<std::string> lines;
  std::istringstream is(doc);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("{\"name\"", 0) == 0) {
      if (line.back() == ',') line.pop_back();  // ",\n" event separator
      lines.push_back(line);
    }
  return lines;
}

std::string traced_pagerank_run() {
  obs::Trace trace;
  const Graph graph = test_graph();
  HyveMachine(HyveConfig::hyve_opt())
      .run(graph, Algorithm::kPageRank, &trace);
  std::ostringstream os;
  trace.write(os);
  return os.str();
}

TEST(Trace, EveryEventHasTheRequiredKeys) {
  const std::string doc = traced_pagerank_run();
  const std::vector<std::string> lines = event_lines(doc);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    for (const std::string key : {"name", "ph", "ts", "pid", "tid"})
      EXPECT_NE(line.find("\"" + key + "\":"), std::string::npos)
          << "missing " << key << " in " << line;
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(Trace, TimestampsAreMonotonicPerTrack) {
  const std::string doc = traced_pagerank_run();
  std::map<std::pair<double, double>, double> last_ts;
  for (const std::string& line : event_lines(doc)) {
    const std::pair<double, double> track{number_field(line, "pid"),
                                          number_field(line, "tid")};
    const double ts = number_field(line, "ts");
    const auto it = last_ts.find(track);
    if (it != last_ts.end())
      EXPECT_GE(ts, it->second) << "ts regressed on track in " << line;
    last_ts[track] = ts;
  }
  EXPECT_GT(last_ts.size(), 4u);  // scheduler, transfer, bpg, PUs...
}

TEST(Trace, GoldenSpanCountForFixedSeedPageRank) {
  obs::Trace trace;
  const Graph graph = test_graph();
  HyveMachine(HyveConfig::hyve_opt())
      .run(graph, Algorithm::kPageRank, &trace);
  // Fixed seed, fixed config, simulated time: the event count is exact.
  // A change here means the instrumentation (or the simulated schedule
  // it mirrors) changed — update deliberately.
  EXPECT_EQ(trace.events(), 1365u);
}

TEST(Trace, CounterTracksCarryPowerAndOccupancyTimelines) {
  const std::string doc = traced_pagerank_run();
  // The counter track exists and carries every advertised timeline.
  EXPECT_NE(doc.find("\"name\":\"power\",\"cat\":\"counter\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"pipeline occupancy\",\"cat\":\"counter\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"banks awake\",\"cat\":\"counter\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"dynamic_mw\":"), std::string::npos);
  EXPECT_NE(doc.find("\"active_pus\":"), std::string::npos);
  // Counter events never carry a duration.
  for (const std::string& line : event_lines(doc)) {
    if (line.find("\"ph\":\"C\"") != std::string::npos) {
      EXPECT_EQ(line.find("\"dur\":"), std::string::npos) << line;
    }
  }
}

TEST(Trace, WriteIsByteDeterministic) {
  const std::string first = traced_pagerank_run();
  const std::string second = traced_pagerank_run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Trace, SweepTraceIsIndependentOfJobCount) {
  const auto sweep = [](int jobs) {
    exp::GraphCache graphs;
    exp::PartitionCache partitions;
    graphs.add("rmat", [] { return test_graph(); });
    exp::SweepSpec spec;
    spec.configs = {HyveConfig::hyve_opt(), HyveConfig::hyve()};
    spec.algorithms = {Algorithm::kPageRank, Algorithm::kBfs};
    spec.graphs = {"rmat"};
    obs::Trace trace;
    exp::SweepOptions options;
    options.jobs = jobs;
    options.trace = &trace;
    exp::SweepEngine(graphs, partitions).run(spec, options);
    std::ostringstream os;
    trace.write(os);
    return os.str();
  };
  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(4));
  // One pid per cell.
  EXPECT_NE(serial.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(serial.find("\"pid\":4"), std::string::npos);
  // The sweep's own pid-0 cache timeline rides along, jobs-independent.
  EXPECT_NE(serial.find("\"name\":\"graph-cache hit rate\""),
            std::string::npos);
}

TEST(Trace, SweepCacheTrackMatchesTheGraphCache) {
  // Half the cells hash-balance, yet the analytic hit-rate track must
  // end at the graph cache's own hit rate: balanced schedules put no
  // image in the graph cache, so the track touches each cell's base
  // graph only.
  exp::GraphCache graphs;
  exp::PartitionCache partitions;
  graphs.add("a", [] { return test_graph(); });
  graphs.add("b", [] { return generate_rmat(3000, 15000, {}, 8); });
  HyveConfig unbalanced = HyveConfig::hyve_opt();
  unbalanced.hash_balance = false;
  unbalanced.label = "unbalanced";
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), unbalanced};
  spec.algorithms = {Algorithm::kPageRank, Algorithm::kBfs};
  spec.graphs = {"a", "b"};
  ASSERT_TRUE(spec.configs.front().hash_balance);
  obs::Trace trace;
  exp::SweepOptions options;
  options.jobs = 1;
  options.trace = &trace;
  exp::SweepEngine(graphs, partitions).run(spec, options);
  std::ostringstream os;
  trace.write(os);
  const std::string json = os.str();
  const std::string key = "\"hit_rate\":";
  const std::size_t last = json.rfind(key);
  ASSERT_NE(last, std::string::npos);
  const double track = std::stod(json.substr(last + key.size()));
  const exp::MemoStats stats = graphs.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_NEAR(track,
              static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.builds),
              1e-9);
}

TEST(Trace, DramRowActivationsAreMirrored) {
  DramTimingSim sim;
  obs::Trace trace;
  sim.set_trace(&trace, /*pid=*/7);
  std::vector<MemRequest> requests;
  for (std::uint64_t i = 0; i < 4; ++i)
    requests.push_back({i * 1u << 20, 64, false});  // distinct rows
  const DramTraceResult result = sim.run(requests);
  EXPECT_EQ(trace.events(), result.row_misses);
  std::ostringstream os;
  trace.write(os);
  EXPECT_NE(os.str().find("\"name\":\"row-activate\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"i\""), std::string::npos);
}

TEST(Trace, RejectsNonFiniteTimestampsAtWrite) {
  obs::Trace trace;
  trace.instant(1, 1, "bad", "test",
                std::numeric_limits<double>::infinity());
  std::ostringstream os;
  EXPECT_THROW(trace.write(os), InvariantError);
}

// ---------- Phase breakdown invariants ----------

RunReport pagerank_report() {
  const Graph graph = test_graph();
  return HyveMachine(HyveConfig::hyve_opt()).run(graph, Algorithm::kPageRank);
}

TEST(Phases, BreakdownSumsToReportTotals) {
  const RunReport r = pagerank_report();
  EXPECT_NEAR(r.phases.total_time_ns(), r.exec_time_ns,
              1e-9 * r.exec_time_ns);
  EXPECT_NEAR(r.phases.total_energy_pj(), r.total_energy_pj(),
              1e-9 * r.total_energy_pj());
  EXPECT_GT(r.phases.time(Phase::kProcess), 0.0);
  EXPECT_GT(r.phases.energy(Phase::kBackground), 0.0);
  EXPECT_NO_THROW(r.validate_phase_totals());
}

TEST(Phases, BreakdownRoundTripsThroughJson) {
  const RunReport r = pagerank_report();
  const RunReport parsed = run_report_from_json(validated_report_json(r));
  EXPECT_TRUE(reports_equivalent(r, parsed));
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const Phase p = static_cast<Phase>(i);
    EXPECT_NEAR(parsed.phases.time(p), r.phases.time(p),
                1e-6 * (r.phases.time(p) + 1.0));
    EXPECT_NEAR(parsed.phases.energy(p), r.phases.energy(p),
                1e-6 * (r.phases.energy(p) + 1.0));
  }
}

TEST(Phases, CorruptedBreakdownFailsValidation) {
  RunReport r = pagerank_report();
  r.phases.time(Phase::kProcess) *= 1.5;
  EXPECT_THROW(r.validate_phase_totals(), InvariantError);
  EXPECT_THROW(validated_report_json(r), InvariantError);
}

// ---------- Energy-attribution ledger invariants ----------

TEST(Ledger, ChargeValidatesItsArguments) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.charge(EnergyComponent::kCount, Phase::kLoad, "x", 1.0),
               InvariantError);
  EXPECT_THROW(ledger.charge(EnergyComponent::kRouter, Phase::kCount, "x", 1.0),
               InvariantError);
  EXPECT_THROW(ledger.charge(EnergyComponent::kRouter, Phase::kLoad, "x", -1.0),
               InvariantError);
  ledger.charge(EnergyComponent::kRouter, Phase::kLoad, "x", 0.0);
  EXPECT_TRUE(ledger.empty());  // zero charges stay out of the cell map
  ledger.charge(EnergyComponent::kRouter, Phase::kLoad, "x", 2.0);
  ledger.charge(EnergyComponent::kRouter, Phase::kLoad, "x", 3.0);
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.total_pj(), 5.0);
  EXPECT_DOUBLE_EQ(ledger.component_pj(EnergyComponent::kRouter), 5.0);
  EXPECT_DOUBLE_EQ(ledger.phase_pj(Phase::kLoad), 5.0);
}

TEST(Ledger, MachineRunAttributesEveryJoule) {
  const RunReport r = pagerank_report();
  ASSERT_FALSE(r.ledger.empty());
  EXPECT_NO_THROW(r.validate_ledger());
  EXPECT_NEAR(r.ledger.total_pj(), r.total_energy_pj(),
              1e-9 * r.total_energy_pj());
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    EXPECT_NEAR(r.ledger.component_pj(c), r.energy[c],
                1e-9 * (r.energy[c] + 1.0))
        << component_name(c);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    EXPECT_NEAR(r.ledger.phase_pj(p), r.phases.energy(p),
                1e-9 * (r.phases.energy(p) + 1.0))
        << phase_name(p);
  }
  // hyve_opt runs power-gated ReRAM with per-PU SRAM pipelines: the
  // ledger must resolve down to bank states and individual units.
  bool has_pu0 = false, has_bank_state = false;
  for (const auto& [key, pj] : r.ledger.cells()) {
    if (key.unit == "pu0") has_pu0 = true;
    if (key.unit.rfind("banks:", 0) == 0) has_bank_state = true;
  }
  EXPECT_TRUE(has_pu0);
  EXPECT_TRUE(has_bank_state);
}

TEST(Ledger, SkewedBreakdownFailsValidation) {
  RunReport r = pagerank_report();
  r.energy[EnergyComponent::kRouter] =
      r.energy[EnergyComponent::kRouter] * 2.0 + 1.0;
  EXPECT_THROW(r.validate_ledger(), InvariantError);
}

TEST(Ledger, HandBuiltReportWithoutCellsPasses) {
  RunReport r;
  r.energy[EnergyComponent::kRouter] = 12.0;
  EXPECT_NO_THROW(r.validate_ledger());
}

TEST(Ledger, MergeAccumulatesCellwise) {
  EnergyLedger a, b;
  a.charge(EnergyComponent::kRouter, Phase::kProcess, "pu0", 1.0);
  b.charge(EnergyComponent::kRouter, Phase::kProcess, "pu0", 2.0);
  b.charge(EnergyComponent::kSramLeakage, Phase::kBackground, "pu1", 4.0);
  a += b;
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.total_pj(), 7.0);
  EXPECT_DOUBLE_EQ(a.component_pj(EnergyComponent::kRouter), 3.0);
}

TEST(Phases, ParserRejectsInconsistentBreakdown) {
  const RunReport r = pagerank_report();
  std::string json = validated_report_json(r);
  const std::string key = "\"phase_energy_pj\":{\"load\":";
  const auto at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  json.insert(at + key.size(), "9e30; ");
  // Either the number parse or the sum check must refuse the record.
  EXPECT_THROW(run_report_from_json(json), std::exception);
}

}  // namespace
}  // namespace hyve
