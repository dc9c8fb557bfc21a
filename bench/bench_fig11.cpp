// Fig. 11: vertex-storage comparison GraphR vs HyVE — global read/write
// counts and total delay / energy / EDP of the whole vertex-storage
// subsystem (local register files vs SRAM, plus global memory traffic),
// reported as GraphR/HyVE ratios (>1 means HyVE better).
//
// §6.3's conclusion: despite GraphR's faster register files, HyVE wins
// because tiny 8-vertex partitions force far more global vertex traffic.
#include <iostream>

#include "bench/common.hpp"
#include "graph/stats.hpp"
#include "memmodel/dram.hpp"
#include "memmodel/reram.hpp"
#include "memmodel/sram.hpp"
#include "model/analytic.hpp"

namespace {

struct VertexStorageCost {
  std::uint64_t global_reads;
  std::uint64_t global_writes;
  double delay_ns;
  double energy_pj;
  double edp() const { return delay_ns * energy_pj; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig11",
      "Fig. 11: vertex-storage GraphR/HyVE ratios per dataset and memory");
  bench::header("Fig. 11",
                "Vertex storage, GraphR/HyVE ratios (>1 favours HyVE)");

  constexpr std::uint32_t kValueBytes = 4;
  constexpr std::uint32_t kNumPus = 8;
  const SramModel sram(units::MiB(2));
  const RegisterFileModel regfile;

  // GraphR's 8x8 block occupancy depends on the graph alone: one per
  // dataset, shared by its DRAM and ReRAM cells.
  const std::vector<BlockOccupancy> occupancy =
      bench::run_cells(opts.datasets.size(), opts, [&](std::size_t d) {
        return block_occupancy(dataset_graph(opts.datasets[d]), 8);
      });

  const auto rows = bench::run_cells(
      opts.datasets.size() * 2, opts,
      [&](std::size_t cell) -> std::vector<std::string> {
    const DatasetId id = opts.datasets[cell / 2];
    const bool use_reram = (cell % 2) != 0;
    const Graph& g = dataset_graph(id);
    const std::uint64_t e = g.num_edges();
    const BlockOccupancy& occ = occupancy[cell / 2];

    auto build = [&](bool graphr, const MemoryModel& gmem) {
      VertexStorageCost c{};
      if (graphr) {
        c.global_reads = model::graphr_vertex_loads(occ.non_empty_blocks);
      } else {
        const HyveMachine machine(HyveConfig::hyve_opt());
        const std::uint32_t p = machine.choose_num_intervals(g, kValueBytes);
        c.global_reads =
            model::hyve_vertex_loads(p, kNumPus, g.num_vertices());
      }
      c.global_writes = g.num_vertices();  // Eq. 7
      const std::uint64_t rb = c.global_reads * kValueBytes;
      const std::uint64_t wb = c.global_writes * kValueBytes;
      // Local traffic: Eq. 3/4 — 2 reads + 1 write per edge.
      double local_energy;
      double local_delay;
      if (graphr) {
        local_energy = e * (2.0 * regfile.read_energy_pj(kValueBytes) +
                            regfile.write_energy_pj(kValueBytes));
        local_delay = e * regfile.read_latency_ns();
      } else {
        local_energy = e * (2.0 * sram.read_energy_pj(kValueBytes) +
                            sram.write_energy_pj(kValueBytes));
        local_delay = e * sram.cycle_ns() / kNumPus;
      }
      c.delay_ns = gmem.stream_read_time_ns(rb) +
                   gmem.stream_write_time_ns(wb) + local_delay;
      c.energy_pj = gmem.stream_read_energy_pj(rb) +
                    gmem.stream_write_energy_pj(wb) + local_energy;
      return c;
    };

    const DramModel dram;
    const ReramModel reram;
    const MemoryModel& gmem =
        use_reram ? static_cast<const MemoryModel&>(reram)
                  : static_cast<const MemoryModel&>(dram);
    const VertexStorageCost gr = build(true, gmem);
    const VertexStorageCost hv = build(false, gmem);
    return std::vector<std::string>{
        dataset_name(id), use_reram ? "ReRAM" : "DRAM",
        Table::num(static_cast<double>(gr.global_reads) / hv.global_reads, 2),
        Table::num(static_cast<double>(gr.global_writes) / hv.global_writes,
                   2),
        Table::num(gr.delay_ns / hv.delay_ns, 2),
        Table::num(gr.energy_pj / hv.energy_pj, 2),
        Table::num(gr.edp() / hv.edp(), 2)};
  });

  Table table({"dataset", "global mem", "reads (G/H)", "writes (G/H)",
               "delay (G/H)", "energy (G/H)", "EDP (G/H)"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);

  bench::paper_note(
      "HyVE reads fewer vertices globally than GraphR and wins delay, "
      "energy and EDP despite GraphR's register files");
  bench::measured_note("read-count and EDP ratios above 1 across datasets");
  opts.finish();
  return 0;
}
