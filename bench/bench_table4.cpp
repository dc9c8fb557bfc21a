// Table 4: energy efficiency (MTEPS/W) as a function of on-chip SRAM size
// {2, 4, 8, 16 MB} across the 2x2 {power-gating} x {data-sharing} grid,
// for BFS / CC / PR on all five datasets.
//
// The paper's findings to reproduce in shape: efficiency falls with SRAM
// size beyond the sweet spot (leakage + slower arrays beat the saved
// off-chip traffic), sharing and power gating help everywhere, and PR
// benefits most from sharing (widest vertex record).
#include <iostream>
#include <string>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_table4",
      "Table 4: energy efficiency vs SRAM size across the 2x2 PG/sharing "
      "grid");
  bench::header("Table 4", "Energy efficiency (MTEPS/W) vs SRAM size");

  const std::uint64_t sizes[] = {units::MiB(2), units::MiB(4), units::MiB(8),
                                 units::MiB(16)};
  struct Variant {
    const char* name;
    bool power_gating;
    bool sharing;
  };
  const Variant variants[] = {
      {"w/o PG, w/o sharing", false, false},
      {"w/o PG, w/ sharing", false, true},
      {"w/ PG, w/o sharing", true, false},
      {"w/ PG, w/ sharing", true, true},
  };
  const std::size_t num_sizes = std::size(sizes);

  // One config per (variant, SRAM size), variant-major like the rows.
  exp::SweepSpec spec;
  for (const Variant& v : variants) {
    for (const std::uint64_t size : sizes) {
      HyveConfig cfg = HyveConfig::hyve_opt();
      cfg.sram_bytes_per_pu = size;
      cfg.power_gating = v.power_gating;
      cfg.data_sharing = v.sharing;
      cfg.label = std::string(v.name) + ", " +
                  std::to_string(size / units::MiB(1)) + "MB";
      spec.configs.push_back(cfg);
    }
  }
  spec.algorithms.assign(std::begin(kCoreAlgorithms),
                         std::end(kCoreAlgorithms));
  spec.graphs = bench::dataset_keys(opts);
  const bench::GridResults grid = bench::run_grid(spec, opts);

  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    std::cout << "\n--- " << algorithm_name(spec.algorithms[a]) << " ---\n";
    Table table({"dataset", "variant", "2MB", "4MB", "8MB", "16MB"});
    for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
      for (std::size_t v = 0; v < std::size(variants); ++v) {
        std::vector<std::string> row{dataset_name(opts.datasets[d]),
                                     variants[v].name};
        for (std::size_t s = 0; s < num_sizes; ++s) {
          const RunReport& r = grid.at(v * num_sizes + s, a, d);
          row.push_back(Table::num(r.mteps_per_watt(), 0));
        }
        table.add_row(std::move(row));
      }
    }
    table.print(std::cout);
  }

  bench::paper_note(
      "2 MB is the sweet spot with sharing, 4 MB without; e.g. BFS/YT "
      "870 -> 1207 MTEPS/W from base to both optimisations");
  bench::measured_note(
      "same monotone SRAM trend and 2x2 ordering; scaled datasets make "
      "P smaller, so the SRAM axis moves less than in the paper");
  opts.finish();
  return 0;
}
