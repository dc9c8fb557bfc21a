// Ablation studies of HyVE's individual design decisions (DESIGN.md):
//   A. sub-bank interleaving (§3.1) — the edge memory's bandwidth scheme;
//   B. energy- vs latency-optimised ReRAM banks (Table 3's two columns);
//   C. processing-unit count scaling (the N in Algorithm 2);
//   D. weighted (12-byte) vs unweighted (8-byte) edges.
// Each section runs the full machine so the knob's system-level effect —
// not just its device-level effect — is visible.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_ablation",
      "Ablations: PageRank under single-knob design changes");
  // Default study dataset is AS (mid-sized); --datasets picks another.
  const DatasetId id = opts.datasets.size() == std::size(kAllDatasets)
                           ? DatasetId::kAS
                           : opts.datasets.front();
  const Algorithm algo = Algorithm::kPageRank;
  bench::header("Ablations", std::string("PageRank on ") + dataset_name(id) +
                                 " under single-knob changes");

  // The full 11-run cell list: A on/off, B energy/latency, C five PU
  // counts, D 8/12-byte edges.
  std::vector<HyveConfig> configs;
  const auto add = [&](HyveConfig cfg, std::string label) {
    cfg.label = std::move(label);
    configs.push_back(std::move(cfg));
  };
  add(HyveConfig::hyve_opt(), "subbank ilv ON");
  {
    HyveConfig off = HyveConfig::hyve_opt();
    off.reram.subbank_interleaving = false;
    add(off, "subbank ilv OFF");
  }
  add(HyveConfig::hyve_opt(), "energy-opt banks");
  {
    HyveConfig lat = HyveConfig::hyve_opt();
    lat.reram.optimization = ReramOptTarget::kLatencyOptimized;
    add(lat, "latency-opt banks");
  }
  const int pu_counts[] = {2, 4, 8, 16, 32};
  for (const int pus : pu_counts) {
    HyveConfig cfg = HyveConfig::hyve_opt();
    cfg.num_pus = pus;
    add(cfg, "pu-sweep " + std::to_string(pus) + " PUs");
  }
  add(HyveConfig::hyve_opt(), "8B edges");
  {
    HyveConfig weighted = HyveConfig::hyve_opt();
    weighted.edge_bytes = 12;
    add(weighted, "12B edges");
  }

  const std::vector<RunReport> reports = bench::run_cells(
      configs.size(), opts,
      [&](std::size_t i) { return bench::run_dataset(configs[i], id, algo); });

  // ---- A: sub-bank interleaving ----
  {
    const RunReport& with = reports[0];
    const RunReport& without = reports[1];
    Table t({"sub-bank interleaving", "time (ms)", "MTEPS/W"});
    t.add_row({"on (HyVE)", Table::num(with.exec_time_ns / 1e6, 3),
               Table::num(with.mteps_per_watt(), 0)});
    t.add_row({"off", Table::num(without.exec_time_ns / 1e6, 3),
               Table::num(without.mteps_per_watt(), 0)});
    t.print(std::cout);
    std::cout << "slowdown without interleaving: "
              << Table::num(without.exec_time_ns / with.exec_time_ns, 2)
              << "x — a single mat cannot feed the PU pipeline (§3.1)\n";
  }

  // ---- B: bank optimisation target ----
  {
    const RunReport& eopt = reports[2];
    const RunReport& lopt = reports[3];
    Table t({"ReRAM bank design", "edge-mem dynamic (uJ)", "MTEPS/W"});
    t.add_row({"energy-optimized (HyVE)",
               Table::num(eopt.energy[EnergyComponent::kEdgeMemDynamic] / 1e6,
                          1),
               Table::num(eopt.mteps_per_watt(), 0)});
    t.add_row({"latency-optimized",
               Table::num(lopt.energy[EnergyComponent::kEdgeMemDynamic] / 1e6,
                          1),
               Table::num(lopt.mteps_per_watt(), 0)});
    t.print(std::cout);
    std::cout << "Table 3's 512-bit energy-optimized pick wins system-wide.\n";
  }

  // ---- C: PU count ----
  {
    Table t({"PUs", "P", "time (ms)", "MTEPS/W", "router share"});
    for (std::size_t i = 0; i < std::size(pu_counts); ++i) {
      const RunReport& r = reports[4 + i];
      t.add_row({std::to_string(pu_counts[i]),
                 std::to_string(r.num_intervals),
                 Table::num(r.exec_time_ns / 1e6, 3),
                 Table::num(r.mteps_per_watt(), 0),
                 Table::num(100.0 * r.energy[EnergyComponent::kRouter] /
                                r.total_energy_pj(),
                            2) +
                     "%"});
    }
    t.print(std::cout);
    std::cout << "more PUs buy time until the edge stream saturates; the\n"
              << "N-to-N router stays a negligible energy share (§4.2).\n";
  }

  // ---- D: weighted edges ----
  {
    const RunReport& w8 = reports[9];
    const RunReport& w12 = reports[10];
    Table t({"edge record", "edge-mem energy (uJ)", "time (ms)", "MTEPS/W"});
    t.add_row({"8 B (src,dst)",
               Table::num(w8.energy.edge_memory_pj() / 1e6, 1),
               Table::num(w8.exec_time_ns / 1e6, 3),
               Table::num(w8.mteps_per_watt(), 0)});
    t.add_row({"12 B (src,dst,weight)",
               Table::num(w12.energy.edge_memory_pj() / 1e6, 1),
               Table::num(w12.exec_time_ns / 1e6, 3),
               Table::num(w12.mteps_per_watt(), 0)});
    t.print(std::cout);
    std::cout << "weights cost ~50% more edge traffic but the read-only\n"
              << "ReRAM stream absorbs it without a write penalty (§3.1).\n";
  }
  opts.finish();
  return 0;
}
