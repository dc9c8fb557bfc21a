#include "baselines/graphr.hpp"

#include <algorithm>

#include "memmodel/sram.hpp"
#include "memmodel/techparams.hpp"
#include "util/check.hpp"

namespace hyve {

using namespace tech;

double GraphRReport::mteps_per_watt() const {
  return units::mteps_per_watt(static_cast<double>(edges_traversed),
                               total_energy_pj());
}

GraphRModel::GraphRModel(GraphRConfig config)
    : config_(config), reram_(config_.reram), dram_(config_.dram) {
  HYVE_CHECK(config_.parallel_crossbars >= 1);
}

namespace {

bool is_mvm_algorithm(Algorithm algorithm) {
  return algorithm == Algorithm::kPageRank || algorithm == Algorithm::kSpmv;
}

constexpr std::uint32_t kEdgeBytes = 8;

}  // namespace

GraphRReport GraphRModel::run(const Graph& graph, Algorithm algorithm) const {
  return run(graph, algorithm, run_functional(graph, *make_program(algorithm)),
             block_occupancy(graph, kCrossbarDim));
}

GraphRReport GraphRModel::run(const Graph& graph, Algorithm algorithm,
                              const FunctionalResult& whole_graph,
                              const BlockOccupancy& occ) const {
  GraphRReport report;
  report.algorithm = algorithm_name(algorithm);
  report.iterations = whole_graph.iterations;
  report.edges_traversed = whole_graph.edges_traversed;
  report.non_empty_blocks = occ.non_empty_blocks;
  report.n_avg = occ.avg_edges_per_non_empty;

  const std::uint64_t e = graph.num_edges();
  const std::uint64_t neb = occ.non_empty_blocks;
  const double iters = report.iterations;
  const std::uint32_t value_bytes =
      make_program(algorithm)->vertex_value_bytes();

  // ---- processing on crossbars (per iteration) ----
  // Configure: every edge of every non-empty block is written into a
  // crossbar cell before the block can be evaluated.
  const double write_energy = static_cast<double>(e) * kCrossbarWriteEnergyPj;
  double read_energy = 0;
  if (is_mvm_algorithm(algorithm)) {
    // Eq. 11: 4 bit-sliced replicas read per block.
    read_energy = static_cast<double>(neb) * kCrossbarsPerValue *
                  kCrossbarReadEnergyPj;
  } else {
    // Eq. 12: rows selected in turn (8 reads) + a CMOS op per edge at the
    // output ports.
    read_energy = static_cast<double>(neb) * kCrossbarDim *
                      kCrossbarsPerValue * kCrossbarReadEnergyPj +
                  static_cast<double>(e) * kCmosEdgeOpEnergyPj;
  }
  EnergyBreakdown& energy = report.energy;
  energy[EnergyComponent::kPuDynamic] = (write_energy + read_energy) * iters;

  // ---- local vertex storage: register files (§6.3) ----
  RegisterFileModel regfile;
  energy[EnergyComponent::kSramDynamic] =
      iters * static_cast<double>(e) *
      (2.0 * regfile.read_energy_pj(value_bytes) +
       regfile.write_energy_pj(value_bytes));

  // ---- global memory traffic ----
  const MemoryModel& gmem =
      config_.global_memory_tech == MemTech::kReram
          ? static_cast<const MemoryModel&>(reram_)
          : static_cast<const MemoryModel&>(dram_);
  // Eq. 9 vertex loads + Eq. 7 write-backs, plus the edge stream feeding
  // the crossbar configuration.
  const std::uint64_t vertex_read_bytes =
      global_vertex_loads(neb) * value_bytes;
  const std::uint64_t vertex_write_bytes =
      static_cast<std::uint64_t>(graph.num_vertices()) * value_bytes;
  energy[EnergyComponent::kOffchipVertexDynamic] =
      iters * (gmem.stream_read_energy_pj(vertex_read_bytes) +
               gmem.stream_write_energy_pj(vertex_write_bytes));
  energy[EnergyComponent::kEdgeMemDynamic] =
      iters * gmem.stream_read_energy_pj(e * kEdgeBytes);

  // ---- timing ----
  // Per block: serial edge writes then the block read(s); blocks are
  // spread over the crossbar fleet. Eq. 16's per-edge form.
  const double reads_per_block =
      is_mvm_algorithm(algorithm) ? 1.0 : static_cast<double>(kCrossbarDim);
  const double block_time =
      occ.avg_edges_per_non_empty * kCrossbarWriteLatencyNs +
      reads_per_block * kCrossbarReadLatencyNs;
  const double processing_time =
      iters * static_cast<double>(neb) * block_time /
      config_.parallel_crossbars;
  const double traffic_time =
      iters * (gmem.stream_read_time_ns(vertex_read_bytes + e * kEdgeBytes) +
               gmem.stream_write_time_ns(vertex_write_bytes));
  report.exec_time_ns = std::max(processing_time, traffic_time);

  // ---- backgrounds ----
  const auto capacity = static_cast<std::uint64_t>(
      (static_cast<double>(e) * kEdgeBytes +
       static_cast<double>(graph.num_vertices()) * value_bytes) *
      kCapacitySlackFactor);
  energy[EnergyComponent::kOffchipVertexBackground] =
      units::power_over(gmem.background_power_mw(capacity),
                        report.exec_time_ns);
  energy[EnergyComponent::kLogicStatic] =
      units::power_over(kLogicStaticMw, report.exec_time_ns);

  return report;
}

}  // namespace hyve
