#include "core/machine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "memmodel/techparams.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/pipeline.hpp"
#include "util/check.hpp"

namespace hyve {

using namespace tech;

// Track layout of a traced run: one process per run (`pid`), fixed
// thread ids for the scheduler, the interval-transfer stream, the
// router, the power-gating controller, and one track per PU.
struct HyveMachine::TraceSink {
  obs::Trace* trace = nullptr;
  std::uint32_t pid = 1;

  static constexpr std::uint32_t kScheduler = 0;
  static constexpr std::uint32_t kTransfer = 1;
  static constexpr std::uint32_t kRouter = 2;
  static constexpr std::uint32_t kBpg = 3;
  static constexpr std::uint32_t kCounters = 4;  // "ph":"C" sample tracks
  static constexpr std::uint32_t kPuBase = 10;

  bool on() const { return trace != nullptr; }

  void name_tracks(const std::string& run_name, int num_pus) const {
    if (!on()) return;
    trace->process_name(pid, run_name);
    trace->thread_name(pid, kScheduler, "scheduler");
    trace->thread_name(pid, kTransfer, "interval transfer");
    trace->thread_name(pid, kRouter, "router");
    trace->thread_name(pid, kBpg, "power gating");
    trace->thread_name(pid, kCounters, "counters");
    for (int pu = 0; pu < num_pus; ++pu)
      trace->thread_name(pid, kPuBase + static_cast<std::uint32_t>(pu),
                         "PU " + std::to_string(pu));
  }
};

double RunReport::mteps() const {
  return exec_time_ns <= 0
             ? 0.0
             : static_cast<double>(edges_traversed) / exec_time_ns * 1e3;
}

double RunReport::mteps_per_watt() const {
  return units::mteps_per_watt(static_cast<double>(edges_traversed),
                               total_energy_pj());
}

HyveMachine::HyveMachine(HyveConfig config)
    : config_(std::move(config)), reram_(config_.reram), dram_(config_.dram) {
  config_.validate();
  if (config_.has_onchip_vertex_memory())
    sram_.emplace(config_.sram_bytes_per_pu);
}

const MemoryModel& HyveMachine::edge_memory() const {
  if (config_.edge_memory_tech == MemTech::kReram)
    return static_cast<const MemoryModel&>(reram_);
  return dram_;
}

const MemoryModel& HyveMachine::offchip_vertex_memory() const {
  if (config_.offchip_vertex_tech == MemTech::kReram)
    return static_cast<const MemoryModel&>(reram_);
  return dram_;
}

std::uint32_t HyveMachine::choose_num_intervals(
    const Graph& graph, std::uint32_t vertex_value_bytes) const {
  const auto n = static_cast<std::uint32_t>(config_.num_pus);
  HYVE_CHECK_MSG(graph.num_vertices() >= n,
                 "graph smaller than the PU count");
  if (!config_.has_onchip_vertex_memory()) return n;
  // Each PU's SRAM is split into a source and a destination section, each
  // holding one interval (§3.2): interval_bytes <= sram/2.
  const double section_bytes =
      static_cast<double>(config_.sram_bytes_per_pu) / 2.0;
  const double total_vertex_bytes =
      static_cast<double>(graph.num_vertices()) * vertex_value_bytes;
  const auto needed = static_cast<std::uint32_t>(
      std::ceil(total_vertex_bytes / section_bytes));
  const std::uint32_t p = std::max(n, ((needed + n - 1) / n) * n);
  HYVE_CHECK_MSG(p <= graph.num_vertices(),
                 "SRAM sections too small: P=" << p << " exceeds V="
                                               << graph.num_vertices());
  return p;
}

RunReport HyveMachine::run(const Graph& graph, Algorithm algorithm,
                           obs::Trace* trace,
                           std::uint32_t trace_pid) const {
  const auto program = make_program(algorithm);
  return run(graph, *program, trace, trace_pid);
}

RunReport HyveMachine::run(const Graph& graph, VertexProgram& program,
                           obs::Trace* trace,
                           std::uint32_t trace_pid) const {
  // Simulate the hash-balanced layout (§4.3): block populations even out
  // across PUs, which the per-step synchronisation rewards. Sweeps
  // memoise the remap through exp::GraphCache::acquire_balanced.
  std::optional<Graph> balanced;
  if (config_.hash_balance)
    balanced = graph.hashed_remap(config_.hash_balance_seed);
  const Graph& image = balanced.has_value() ? *balanced : graph;
  const std::uint32_t p =
      choose_num_intervals(image, program.vertex_value_bytes());
  const Partitioning schedule =
      make_partitioner(config_.partitioner)->partition(image, p);
  const FunctionalOutcome functional =
      run_functional_phase(image, schedule, program);
  return run_with_functional(image, schedule, program, functional, trace,
                             trace_pid);
}

std::size_t FunctionalOutcome::approx_bytes() const {
  std::size_t bytes = sizeof(FunctionalOutcome);
  if (frontier.has_value()) bytes += frontier->approx_bytes();
  return bytes;
}

FunctionalOutcome HyveMachine::run_functional_phase(
    const Graph& graph, const Partitioning& schedule,
    VertexProgram& program) const {
  const obs::HostSpan host_span("machine.functional");
  HYVE_CHECK_MSG(schedule.num_vertices() == graph.num_vertices(),
                 "schedule built for a different graph");
  const std::uint32_t p =
      choose_num_intervals(graph, program.vertex_value_bytes());
  HYVE_CHECK_MSG(schedule.num_intervals() == p,
                 "schedule has P=" << schedule.num_intervals()
                                   << " but this machine needs P=" << p);
  FunctionalOutcome outcome;
  outcome.num_intervals = p;
  if (config_.frontier_block_skipping && frontier_tracks_activity(program)) {
    outcome.frontier = run_frontier(graph, program, schedule);
    outcome.result = outcome.frontier->result;
  } else {
    // A program the walk cannot narrow runs the dense passes either
    // way; frontier mode only adds their trace.
    outcome.result = run_functional(graph, program, schedule);
    if (config_.frontier_block_skipping)
      outcome.frontier = full_pass_trace(schedule, outcome.result);
  }
  return outcome;
}

RunReport HyveMachine::run_with_functional(const Graph& graph,
                                           const Partitioning& schedule,
                                           VertexProgram& program,
                                           const FunctionalOutcome& functional,
                                           obs::Trace* trace,
                                           std::uint32_t trace_pid) const {
  const obs::HostSpan host_span("machine.run");
  HYVE_CHECK_MSG(schedule.num_vertices() == graph.num_vertices(),
                 "schedule built for a different graph");
  const std::uint32_t p =
      choose_num_intervals(graph, program.vertex_value_bytes());
  HYVE_CHECK_MSG(schedule.num_intervals() == p,
                 "schedule has P=" << schedule.num_intervals()
                                   << " but this machine needs P=" << p);
  HYVE_CHECK_MSG(functional.num_intervals == p,
                 "functional outcome was computed for P="
                     << functional.num_intervals
                     << " but this machine needs P=" << p);
  HYVE_CHECK_MSG(
      functional.frontier.has_value() == config_.frontier_block_skipping,
      "functional outcome frontier mode disagrees with this config");
  if (functional.frontier.has_value())
    HYVE_CHECK_MSG(functional.frontier->num_intervals == p,
                   "frontier trace P mismatch");
  const TraceSink sink{trace, trace_pid};
  const FrontierTrace* ftrace =
      functional.frontier.has_value() ? &*functional.frontier : nullptr;
  return account(graph, program, schedule, functional.result, ftrace, sink);
}

namespace {

// Pipeline stage times of one processing unit (Eq. 1's max() argument).
PipelineStageTimes stage_times(double edge_stream_bytes_per_ns, int num_pus,
                               double local_vertex_cycle_ns,
                               std::uint32_t edge_bytes) {
  PipelineStageTimes stages;
  // All N PUs stream their blocks concurrently and share the channel.
  stages.edge_read_ns =
      static_cast<double>(edge_bytes) * num_pus / edge_stream_bytes_per_ns;
  stages.vertex_read_ns = local_vertex_cycle_ns;
  stages.update_ns = kPuPipelineCycleNs;
  stages.vertex_write_ns = local_vertex_cycle_ns;
  // Pipe fill: edge fetch + two vertex accesses + the unpipelined
  // multiplier latency, once per block.
  stages.fill_latency_ns = 30.0 + kCmosMultiplierLatencyNs +
                           2.0 * local_vertex_cycle_ns;
  return stages;
}

// The dynamic-energy formulas of one run, shared between the whole-run
// ledger charges in account() and the per-iteration power-draw counter
// samples: both must price an operation identically or the counter
// timeline would drift from the ledger it previews.
struct DynCosts {
  const MemoryModel& emem;
  const MemoryModel& vmem;
  const SramModel* sram;
  std::uint32_t value_bytes;

  double edge_stream_pj(std::uint64_t bytes) const {
    return emem.stream_read_energy_pj(bytes);
  }
  double vmem_stream_pj(std::uint64_t read, std::uint64_t written) const {
    return vmem.stream_read_energy_pj(read) +
           vmem.stream_write_energy_pj(written);
  }
  double vmem_random_pj(std::uint64_t reads, std::uint64_t writes) const {
    return static_cast<double>(reads) * vmem.random_read_energy_pj(
                                            value_bytes) *
               kNoSramVertexLocalityFactor +
           static_cast<double>(writes) * vmem.random_write_energy_pj(
                                             value_bytes) *
               kNoSramVertexLocalityFactor;
  }
  // Source read + destination read + destination write per edge (Eq. 4).
  double sram_edge_pj(std::uint64_t edges) const {
    if (sram == nullptr) return 0;
    return static_cast<double>(edges) *
           (2.0 * sram->read_energy_pj(value_bytes) +
            sram->write_energy_pj(value_bytes));
  }
  // One read + one write per applied vertex.
  double sram_apply_pj(std::uint64_t ops) const {
    if (sram == nullptr) return 0;
    return static_cast<double>(ops) * (sram->read_energy_pj(value_bytes) +
                                       sram->write_energy_pj(value_bytes));
  }
  double sram_fill_pj(std::uint64_t fill_bytes,
                      std::uint64_t drain_bytes) const {
    if (sram == nullptr) return 0;
    return sram->write_energy_pj(4) * (static_cast<double>(fill_bytes) / 4.0) +
           sram->read_energy_pj(4) * (static_cast<double>(drain_bytes) / 4.0);
  }
  double pu_edge_pj(std::uint64_t edges) const {
    return static_cast<double>(edges) *
           (kCmosEdgeOpEnergyPj + kControllerPerEdgeEnergyPj);
  }
  double pu_apply_pj(std::uint64_t ops) const {
    return static_cast<double>(ops) * kCmosEdgeOpEnergyPj;
  }
  double router_pj(std::uint64_t hops) const {
    return static_cast<double>(hops) * kRouterHopEnergyPj;
  }

  // All dynamic energy implied by one iteration's access stats — the
  // numerator of the simulated power-draw counter track.
  double iteration_dynamic_pj(const AccessStats& it) const {
    return edge_stream_pj(it.edge_bytes_read) +
           vmem_stream_pj(it.offchip_vertex_bytes_read,
                          it.offchip_vertex_bytes_written) +
           vmem_random_pj(it.offchip_vertex_random_reads,
                          it.offchip_vertex_random_writes) +
           sram_edge_pj(it.edge_ops) + sram_apply_pj(it.vertex_ops) +
           sram_fill_pj(it.sram_fill_bytes, it.sram_drain_bytes) +
           pu_edge_pj(it.edge_ops) + pu_apply_pj(it.vertex_ops) +
           router_pj(it.router_hops);
  }
};

}  // namespace

void HyveMachine::account_with_sram(const Graph& graph,
                                    const Partitioning& schedule,
                                    std::uint32_t value_bytes, bool has_apply,
                                    const FrontierTrace* frontier,
                                    const TraceSink& sink,
                                    RunReport& report,
                                    UnitTallies& tallies) const {
  const auto n = static_cast<std::uint32_t>(config_.num_pus);
  const std::uint32_t p = schedule.num_intervals();
  const std::uint32_t k = p / n;
  HYVE_CHECK(k * n == p);
  const std::uint64_t v = graph.num_vertices();
  const std::uint32_t edge_bytes = config_.edge_bytes;

  tallies.pu_edges.assign(n, 0);
  tallies.pu_remote.assign(n, 0);
  tallies.pu_apply.assign(n, 0);
  // Destination interval y lives in PU y % n, which also runs its apply
  // step — the per-PU apply populations the ledger attributes to.
  std::vector<std::uint64_t> apply_pop(n, 0);
  if (has_apply)
    for (std::uint32_t y = 0; y < p; ++y)
      apply_pop[y % n] += schedule.interval_population(y);

  // Per-iteration views of the frontier trace, refreshed at the top of
  // the iteration loop: a dense P*P expansion of the sparse trace plus
  // the per-source-row activity bitmap. Precomputing both turns the old
  // O(P) interval_active scan (O(iters * P^3) overall) into O(1) lookups.
  std::vector<std::uint64_t> frontier_blocks;
  std::vector<char> row_active;
  // Edges of block (x, y) streamed during the current iteration
  // (frontier skipping zeroes whole source-rows of the block grid).
  auto block_edges = [&](std::uint32_t x, std::uint32_t y) -> std::uint64_t {
    if (frontier != nullptr)
      return frontier_blocks[static_cast<std::uint64_t>(x) * p + y];
    return schedule.block_edge_count(x, y);
  };
  // Whether source interval x participates at all in this iteration.
  auto interval_active = [&](std::uint32_t x) {
    return frontier == nullptr || row_active[x] != 0;
  };

  const MemoryModel& vmem = offchip_vertex_memory();
  const MemoryModel& emem = edge_memory();
  const double edge_bw =
      static_cast<double>(edge_bytes) /
      emem.stream_read_time_ns(edge_bytes);  // bytes per ns
  const PipelineStageTimes stages =
      stage_times(edge_bw, config_.num_pus, sram_->cycle_ns(), edge_bytes);

  AccessStats total;
  double exec_time = 0;
  double streaming_time = 0;

  // The architectural iteration walk is the longest uninterrupted
  // stretch of a cell; beating here keeps the stall watchdog quiet on
  // large graphs. One relaxed-class load per iteration when live
  // telemetry is off.
  obs::LiveTelemetry& live = obs::live_telemetry();

  for (std::uint32_t iter = 0; iter < report.iterations; ++iter) {
    live.beat("machine.iteration");
    AccessStats it;
    if (frontier != nullptr) {
      frontier->expand_iteration(iter, frontier_blocks);
      frontier->source_activity(iter, row_active);
    }

    // ---- Loading / Updating phases (Algorithm 2) ----
    // Destination intervals: each loaded once and written back once per
    // iteration. Source intervals: with data sharing, loaded once per
    // super-block column (k times each active interval); without, once
    // per *block*, since every step replaces the PU's source section.
    std::uint64_t src_bytes = 0;
    std::uint64_t src_loads = 0;
    for (std::uint32_t x = 0; x < p; ++x) {
      const std::uint64_t interval_bytes =
          static_cast<std::uint64_t>(schedule.interval_population(x)) *
          value_bytes;
      if (config_.data_sharing) {
        if (interval_active(x)) {
          src_bytes += k * interval_bytes;
          src_loads += k;
        }
      } else {
        for (std::uint32_t y = 0; y < p; ++y) {
          if (frontier == nullptr || block_edges(x, y) > 0) {
            src_bytes += interval_bytes;
            ++src_loads;
          }
        }
      }
    }
    const std::uint64_t vertex_bytes_total = v * value_bytes;
    it.interval_loads = p /*dst*/ + src_loads;
    it.interval_writebacks = p;
    it.offchip_vertex_bytes_read = src_bytes + vertex_bytes_total;
    it.offchip_vertex_bytes_written = vertex_bytes_total;
    it.sram_fill_bytes = src_bytes + vertex_bytes_total;
    it.sram_drain_bytes = vertex_bytes_total;

    // ---- Processing phase ----
    std::uint64_t edges_this_iter = 0;
    std::uint64_t remote_edges = 0;
    double processing_time = 0;
    // Simulated clock of the processing stream within this iteration
    // (only advanced for trace spans; exec_time uses processing_time).
    const double iter_start_ns = exec_time;
    double step_start_ns = iter_start_ns;
    for (std::uint32_t sb_y = 0; sb_y < k; ++sb_y) {
      for (std::uint32_t sb_x = 0; sb_x < k; ++sb_x) {
        for (std::uint32_t step = 0; step < n; ++step) {
          // Synchronising: the step lasts as long as its slowest PU.
          double step_time = 0;
          std::uint32_t active_pus = 0;
          for (std::uint32_t pu = 0; pu < n; ++pu) {
            const std::uint32_t x = sb_x * n + (pu + step) % n;
            const std::uint32_t y = sb_y * n + pu;
            const std::uint64_t e = block_edges(x, y);
            edges_this_iter += e;
            tallies.pu_edges[pu] += e;
            if (e > 0) ++active_pus;
            const bool remote = config_.data_sharing && x % n != y % n;
            if (remote) {
              remote_edges += e;
              tallies.pu_remote[pu] += e;
            }
            const double block_ns = block_processing_time_ns(e, stages);
            step_time = std::max(step_time, block_ns);
            if (sink.on() && e > 0) {
              sink.trace->complete(
                  sink.pid, TraceSink::kPuBase + pu, "block",
                  "process", step_start_ns, block_ns,
                  {{"x", static_cast<double>(x)},
                   {"y", static_cast<double>(y)},
                   {"edges", static_cast<double>(e)}});
              if (remote)
                sink.trace->complete(
                    sink.pid, TraceSink::kRouter, "share",
                    "router", step_start_ns, block_ns,
                    {{"src_interval", static_cast<double>(x)},
                     {"pu", static_cast<double>(pu)},
                     {"edges", static_cast<double>(e)}});
            }
          }
          // Pipeline occupancy: how many of the N PUs this synchronised
          // step actually kept busy (frontier skipping and skew idle the
          // rest until the step barrier).
          if (sink.on() && step_time > 0)
            sink.trace->counter(
                sink.pid, TraceSink::kCounters, "pipeline occupancy",
                step_start_ns,
                {{"active_pus", static_cast<double>(active_pus)}});
          processing_time += step_time;
          step_start_ns += step_time;
        }
      }
    }
    it.edge_bytes_read = edges_this_iter * edge_bytes;
    it.edge_stream_passes = 1;
    it.edge_ops = edges_this_iter;
    it.sram_random_reads = 2 * edges_this_iter;  // source + destination
    it.sram_random_writes = edges_this_iter;     // destination (Eq. 4)
    it.router_hops = remote_edges;

    if (has_apply) {
      it.vertex_ops = v;
      it.sram_random_reads += v;
      it.sram_random_writes += v;
      for (std::uint32_t pu = 0; pu < n; ++pu)
        tallies.pu_apply[pu] += apply_pop[pu];
    }

    // ---- Timing ----
    const double offchip_time =
        vmem.stream_read_time_ns(it.offchip_vertex_bytes_read) +
        vmem.stream_write_time_ns(it.offchip_vertex_bytes_written);
    const double fill_time =
        (static_cast<double>(it.sram_fill_bytes + it.sram_drain_bytes) /
         kSramFillPortBytes) *
        sram_->cycle_ns() / n;  // the N arrays fill in parallel
    const double transfer_time = std::max(offchip_time, fill_time);
    const double apply_time =
        has_apply ? (static_cast<double>(v) / n) * sram_->cycle_ns() : 0.0;

    // Interval loading double-buffers against processing (Fig. 8's step
    // 1/6 overlap with steps 2-5), so an iteration is bound by the slower
    // of the two streams. The phase breakdown attributes the iteration
    // to whichever stream bound it, so phase times sum to exec_time_ns.
    const double busy_time = processing_time + apply_time;
    if (transfer_time > busy_time) {
      report.phases.time(Phase::kLoad) += transfer_time;
    } else {
      report.phases.time(Phase::kProcess) += processing_time;
      report.phases.time(Phase::kApply) += apply_time;
    }

    if (sink.on()) {
      const double iter_time = std::max(transfer_time, busy_time);
      sink.trace->complete(sink.pid, TraceSink::kScheduler, "iteration",
                           "iteration", iter_start_ns, iter_time,
                           {{"iter", static_cast<double>(iter)},
                            {"edges", static_cast<double>(edges_this_iter)}});
      if (transfer_time > 0)
        sink.trace->complete(
            sink.pid, TraceSink::kTransfer, "interval load+update", "load",
            iter_start_ns, transfer_time,
            {{"loads", static_cast<double>(it.interval_loads)},
             {"writebacks", static_cast<double>(it.interval_writebacks)}});
      if (apply_time > 0)
        sink.trace->complete(sink.pid, TraceSink::kScheduler, "apply",
                             "apply", iter_start_ns + processing_time,
                             apply_time,
                             {{"vertices", static_cast<double>(v)}});
      if (config_.edge_memory_tech == MemTech::kReram &&
          config_.power_gating && processing_time > 0) {
        sink.trace->complete(sink.pid, TraceSink::kBpg, "bank awake",
                             "bpg", iter_start_ns, processing_time);
        // BPG gate state: one bank awake while the edge stream runs,
        // everything re-gated for the rest of the iteration.
        sink.trace->counter(sink.pid, TraceSink::kCounters, "banks awake",
                            iter_start_ns, {{"awake", 1.0}});
        sink.trace->counter(sink.pid, TraceSink::kCounters, "banks awake",
                            iter_start_ns + processing_time,
                            {{"awake", 0.0}});
      }
      // Simulated power draw: the iteration's dynamic energy over its
      // wall-clock (pJ/ns = mW), sampled at each iteration boundary.
      if (iter_time > 0) {
        const DynCosts costs{edge_memory(), offchip_vertex_memory(),
                             sram_ ? &*sram_ : nullptr, value_bytes};
        sink.trace->counter(
            sink.pid, TraceSink::kCounters, "power",
            iter_start_ns,
            {{"dynamic_mw", costs.iteration_dynamic_pj(it) / iter_time}});
      }
    }

    exec_time += std::max(transfer_time, busy_time);
    streaming_time += processing_time;
    total += it;
  }

  report.exec_time_ns = exec_time;
  report.streaming_time_ns = streaming_time;
  report.stats = total;
}

void HyveMachine::account_without_sram(const Graph& graph,
                                       std::uint32_t value_bytes,
                                       RunReport& report) const {
  const std::uint64_t e = graph.num_edges();
  AccessStats per_iter;
  per_iter.edge_bytes_read = e * config_.edge_bytes;
  per_iter.edge_stream_passes = 1;
  per_iter.edge_ops = e;
  // Without an on-chip vertex level every vertex touch goes off-chip
  // (2 reads + 1 write per edge, Eq. 3/4).
  per_iter.offchip_vertex_random_reads = 2 * e;
  per_iter.offchip_vertex_random_writes = e;
  (void)value_bytes;

  const MemoryModel& emem = edge_memory();
  const MemoryModel& vmem = offchip_vertex_memory();
  const double edge_stream_ns_per_edge =
      emem.stream_read_time_ns(e * config_.edge_bytes) /
      static_cast<double>(e);
  // Scheduling locality overlaps independent reads, but the destination
  // write of each edge is a dependent read-modify-write that occupies the
  // device at its raw write rate (ruinous for ReRAM's 10 ns set pulse).
  const double vertex_ns_per_edge =
      2.0 * vmem.random_access_throughput_ns() * kNoSramVertexLocalityFactor +
      vmem.random_write_throughput_ns();
  const double pu_ns_per_edge = kPuPipelineCycleNs / config_.num_pus;
  const double ns_per_edge =
      std::max({edge_stream_ns_per_edge, vertex_ns_per_edge, pu_ns_per_edge});

  const double iter_time = static_cast<double>(e) * ns_per_edge;
  const std::uint32_t iters = report.iterations;
  report.exec_time_ns = iter_time * iters;
  report.streaming_time_ns = report.exec_time_ns;
  // No on-chip level: every iteration is one bound edge/vertex stream,
  // so the whole wall-clock is processing.
  report.phases.time(Phase::kProcess) = report.exec_time_ns;
  AccessStats total;
  for (std::uint32_t i = 0; i < iters; ++i) total += per_iter;
  report.stats = total;
}

RunReport HyveMachine::account(const Graph& graph, VertexProgram& program,
                               const Partitioning& schedule,
                               const FunctionalResult& functional,
                               const FrontierTrace* frontier,
                               const TraceSink& sink) const {
  RunReport report;
  report.config_label = config_.label;
  report.algorithm = program.name();
  report.num_intervals = schedule.num_intervals();
  report.iterations = functional.iterations;
  report.edges_traversed = functional.edges_traversed;
  report.partitioner = config_.partitioner.to_string();
  report.partition = compute_partition_stats(schedule, config_.num_pus);
  if (obs::enabled()) {
    // Integer-scaled so histogram rollups (count/sum/min/max) stay
    // order-independent across worker interleavings.
    static obs::Histogram& n_avg =
        obs::registry().histogram("sim.partition.n_avg_milli");
    static obs::Histogram& replication =
        obs::registry().histogram("sim.partition.replication_milli");
    static obs::Histogram& balance =
        obs::registry().histogram("sim.partition.balance_milli");
    static obs::Histogram& remote =
        obs::registry().histogram("sim.partition.remote_edges_permille");
    static obs::Histogram& wake =
        obs::registry().histogram("sim.partition.bank_wake_permille");
    n_avg.observe(static_cast<std::uint64_t>(1000.0 * report.partition.n_avg));
    replication.observe(static_cast<std::uint64_t>(
        1000.0 * report.partition.replication_factor));
    balance.observe(static_cast<std::uint64_t>(
        1000.0 * report.partition.interval_balance));
    remote.observe(static_cast<std::uint64_t>(
        1000.0 * report.partition.remote_edge_fraction));
    wake.observe(static_cast<std::uint64_t>(
        1000.0 * report.partition.bank_wake_fraction));
  }
  if (obs::enabled() && frontier != nullptr) {
    // Host-side pattern-reuse tallies carried on the trace (zero when
    // reuse is off). Observed from the trace rather than at skip time so
    // functional-cache replays account identically to fresh runs.
    static obs::Counter& blocks_skipped =
        obs::registry().counter("sim.kernel.blocks_skipped");
    static obs::Counter& edges_skipped =
        obs::registry().counter("sim.kernel.edges_skipped");
    blocks_skipped.add(frontier->blocks_skipped);
    edges_skipped.add(frontier->edges_skipped);
  }

  if (sink.on())
    sink.name_tracks(config_.label + " / " + program.name(),
                     config_.num_pus);

  const std::uint32_t value_bytes = program.vertex_value_bytes();
  UnitTallies tallies;
  const DynCosts costs{edge_memory(), offchip_vertex_memory(),
                       sram_ ? &*sram_ : nullptr, value_bytes};
  if (config_.has_onchip_vertex_memory()) {
    account_with_sram(graph, schedule, value_bytes, program.has_apply_phase(),
                      frontier, sink, report, tallies);
  } else {
    account_without_sram(graph, value_bytes, report);
    if (sink.on() && report.iterations > 0) {
      const double iter_time =
          report.exec_time_ns / report.iterations;
      AccessStats per_iter = report.stats;
      // Uniform iterations: the per-iteration power sample is the run
      // average (this walk has no per-iteration structure to refine it).
      const double iter_dynamic_pj =
          costs.iteration_dynamic_pj(per_iter) / report.iterations;
      for (std::uint32_t i = 0; i < report.iterations; ++i) {
        sink.trace->complete(sink.pid, TraceSink::kScheduler, "iteration",
                             "iteration", i * iter_time, iter_time,
                             {{"iter", static_cast<double>(i)}});
        if (iter_time > 0)
          sink.trace->counter(sink.pid, TraceSink::kCounters, "power",
                              i * iter_time,
                              {{"dynamic_mw", iter_dynamic_pj / iter_time}});
      }
    }
  }

  const AccessStats& s = report.stats;
  EnergyBreakdown& energy = report.energy;
  EnergyLedger& ledger = report.ledger;
  const double t = report.exec_time_ns;
  // Per-PU attribution only where the walk produced per-PU counts; the
  // SRAM-less baselines charge whole-module units instead.
  const bool per_pu = !tallies.pu_edges.empty();
  const auto pu_unit = [](std::uint32_t pu) {
    return "pu" + std::to_string(pu);
  };

  // ---- edge memory ----
  // The module must both hold the edges and feed N PUs at full pipeline
  // rate; whichever requirement needs more chips sets the provisioning.
  const MemoryModel& emem = edge_memory();
  const double required_edge_gbps = config_.num_pus *
                                    static_cast<double>(config_.edge_bytes) /
                                    kPuPipelineCycleNs;
  const auto edge_capacity = std::max(
      static_cast<std::uint64_t>(static_cast<double>(graph.num_edges()) *
                                 config_.edge_bytes * kCapacitySlackFactor),
      emem.min_capacity_for_bandwidth_gbps(required_edge_gbps));
  ledger.charge(EnergyComponent::kEdgeMemDynamic, Phase::kProcess, "edge-mem",
                costs.edge_stream_pj(s.edge_bytes_read));
  if (config_.edge_memory_tech == MemTech::kReram && config_.power_gating) {
    EdgeMemoryActivity activity;
    activity.total_time_ns = t;
    activity.streaming_time_ns = report.streaming_time_ns;
    activity.bytes_streamed = s.edge_bytes_read;
    activity.capacity_bytes = edge_capacity;
    report.bpg = evaluate_power_gating(reram_, activity);
    // Bank-state attribution: the single streaming bank, the re-gated
    // remainder of the module, and the gate-open pulses (the wake
    // energy, charged to the wake phase it buys back).
    ledger.charge(EnergyComponent::kEdgeMemBackground, Phase::kBackground,
                  "banks:awake", report.bpg.awake_background_pj);
    ledger.charge(EnergyComponent::kEdgeMemBackground, Phase::kBackground,
                  "banks:gated", report.bpg.idle_background_pj);
    ledger.charge(EnergyComponent::kEdgeMemBackground, Phase::kWake,
                  "banks:wake", report.bpg.wake_energy_pj);
    report.exec_time_ns += report.bpg.exposed_wake_time_ns;
    report.phases.time(Phase::kWake) += report.bpg.exposed_wake_time_ns;
    if (sink.on() && report.bpg.exposed_wake_time_ns > 0)
      sink.trace->complete(sink.pid, TraceSink::kBpg, "exposed wake", "bpg",
                           t, report.bpg.exposed_wake_time_ns,
                           {{"bank_wakes",
                             static_cast<double>(report.bpg.bank_wakes)}});
  } else {
    ledger.charge(
        EnergyComponent::kEdgeMemBackground, Phase::kBackground, "edge-mem",
        units::power_over(emem.background_power_mw(edge_capacity), t));
  }

  // ---- off-chip vertex memory ----
  const MemoryModel& vmem = offchip_vertex_memory();
  const auto vertex_capacity = static_cast<std::uint64_t>(
      static_cast<double>(graph.num_vertices()) * value_bytes *
      kCapacitySlackFactor);
  // acc+DRAM / acc+ReRAM keep everything in one module: its background is
  // already accounted under the edge memory (whose capacity covers both).
  const bool shared_module =
      !config_.has_onchip_vertex_memory() &&
      config_.edge_memory_tech == config_.offchip_vertex_tech;
  // Stream traffic is the interval loading/updating phase; random
  // traffic (baselines without on-chip SRAM) happens per processed edge.
  ledger.charge(EnergyComponent::kOffchipVertexDynamic, Phase::kLoad,
                "vertex-mem",
                costs.vmem_stream_pj(s.offchip_vertex_bytes_read,
                                     s.offchip_vertex_bytes_written));
  ledger.charge(EnergyComponent::kOffchipVertexDynamic, Phase::kProcess,
                "vertex-mem",
                costs.vmem_random_pj(s.offchip_vertex_random_reads,
                                     s.offchip_vertex_random_writes));
  if (!shared_module)
    ledger.charge(
        EnergyComponent::kOffchipVertexBackground, Phase::kBackground,
        "vertex-mem",
        units::power_over(vmem.background_power_mw(vertex_capacity), t));

  // ---- on-chip vertex memory ----
  if (sram_) {
    ledger.charge(EnergyComponent::kSramDynamic, Phase::kLoad, "sram",
                  costs.sram_fill_pj(s.sram_fill_bytes, s.sram_drain_bytes));
    const double pu_leak_pj =
        units::power_over(sram_->leakage_power_mw(), t);
    for (std::uint32_t pu = 0; pu < tallies.pu_edges.size(); ++pu) {
      ledger.charge(EnergyComponent::kSramDynamic, Phase::kProcess,
                    pu_unit(pu), costs.sram_edge_pj(tallies.pu_edges[pu]));
      ledger.charge(EnergyComponent::kSramDynamic, Phase::kApply,
                    pu_unit(pu), costs.sram_apply_pj(tallies.pu_apply[pu]));
      ledger.charge(EnergyComponent::kSramLeakage, Phase::kBackground,
                    pu_unit(pu), pu_leak_pj);
    }
  }

  // ---- router / PUs / control ----
  if (per_pu) {
    for (std::uint32_t pu = 0; pu < tallies.pu_edges.size(); ++pu) {
      ledger.charge(EnergyComponent::kRouter, Phase::kProcess, pu_unit(pu),
                    costs.router_pj(tallies.pu_remote[pu]));
      ledger.charge(EnergyComponent::kPuDynamic, Phase::kProcess, pu_unit(pu),
                    costs.pu_edge_pj(tallies.pu_edges[pu]));
      ledger.charge(EnergyComponent::kPuDynamic, Phase::kApply, pu_unit(pu),
                    costs.pu_apply_pj(tallies.pu_apply[pu]));
    }
  } else {
    ledger.charge(EnergyComponent::kRouter, Phase::kProcess, "pus",
                  costs.router_pj(s.router_hops));
    ledger.charge(EnergyComponent::kPuDynamic, Phase::kProcess, "pus",
                  costs.pu_edge_pj(s.edge_ops));
    ledger.charge(EnergyComponent::kPuDynamic, Phase::kApply, "pus",
                  costs.pu_apply_pj(s.vertex_ops));
  }
  ledger.charge(EnergyComponent::kLogicStatic, Phase::kBackground, "logic",
                units::power_over(kLogicStaticMw, t));

  // ---- derive the breakdowns from the ledger ----
  // The ledger is the single accounting surface: every joule above went
  // through charge(), so the component/phase breakdowns are its marginal
  // sums and agree with it by construction. validate_ledger() re-proves
  // the agreement (and validate_phase_totals the phase/total one) so a
  // future charge added outside this block cannot silently skew them.
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(EnergyComponent::kCount); ++c)
    energy[static_cast<EnergyComponent>(c)] =
        ledger.component_pj(static_cast<EnergyComponent>(c));
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p)
    report.phases.energy(static_cast<Phase>(p)) =
        ledger.phase_pj(static_cast<Phase>(p));

  report.validate_phase_totals();
  report.validate_ledger();
  // Cross-layer invariant: the functional pass and the architectural
  // walk must agree on how many edges were processed.
  HYVE_CHECK_MSG(report.edges_traversed == report.stats.edge_ops,
                 "functional pass traversed " << report.edges_traversed
                                              << " edges but the walk "
                                                 "accounted "
                                              << report.stats.edge_ops);

  return report;
}

void RunReport::validate_phase_totals(double rel_tol) const {
  const auto close = [rel_tol](double a, double b) {
    return std::abs(a - b) <=
           rel_tol * std::max({std::abs(a), std::abs(b), 1.0});
  };
  HYVE_CHECK_MSG(close(phases.total_time_ns(), exec_time_ns),
                 "phase times sum to " << phases.total_time_ns()
                                       << " ns but exec_time_ns is "
                                       << exec_time_ns);
  HYVE_CHECK_MSG(close(phases.total_energy_pj(), total_energy_pj()),
                 "phase energies sum to " << phases.total_energy_pj()
                                          << " pJ but the total is "
                                          << total_energy_pj());
}

void RunReport::validate_ledger(double rel_tol) const {
  // Reports assembled by hand (tests, parsers fed pre-ledger files)
  // carry no attribution cells; only a machine-produced ledger makes
  // claims to check.
  if (ledger.empty()) return;
  const auto close = [rel_tol](double a, double b) {
    return std::abs(a - b) <=
           rel_tol * std::max({std::abs(a), std::abs(b), 1.0});
  };
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EnergyComponent::kCount); ++i) {
    const auto c = static_cast<EnergyComponent>(i);
    HYVE_CHECK_MSG(close(ledger.component_pj(c), energy[c]),
                   "ledger cells for " << component_name(c) << " sum to "
                                       << ledger.component_pj(c)
                                       << " pJ but the breakdown has "
                                       << energy[c]);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    HYVE_CHECK_MSG(close(ledger.phase_pj(p), phases.energy(p)),
                   "ledger cells for phase " << phase_name(p) << " sum to "
                                             << ledger.phase_pj(p)
                                             << " pJ but the breakdown has "
                                             << phases.energy(p));
  }
  HYVE_CHECK_MSG(close(ledger.total_pj(), total_energy_pj()),
                 "ledger total " << ledger.total_pj()
                                 << " pJ but the report total is "
                                 << total_energy_pj());
}

}  // namespace hyve
