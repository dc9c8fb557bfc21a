// Fig. 13: energy efficiency (MTEPS/W) using 1-, 2-, and 3-bit ReRAM
// cells. MLC raises density but the parallel-sensing scheme's extra
// reference steps cost read energy, so SLC wins — the design decision of
// §7.2.1.
#include <iostream>
#include <string>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig13",
      "Fig. 13: energy efficiency vs ReRAM cell bits (BFS)");
  bench::header("Fig. 13", "Energy efficiency vs ReRAM cell bits (BFS)");

  exp::SweepSpec spec;
  for (const int bits : {1, 2, 3}) {
    HyveConfig cfg = HyveConfig::hyve_opt();
    cfg.reram.cell_bits = bits;
    cfg.label += "/" + std::to_string(bits) + "-bit cells";
    spec.configs.push_back(cfg);
  }
  spec.algorithms = {Algorithm::kBfs};
  spec.graphs = bench::dataset_keys(opts);
  const bench::GridResults grid = bench::run_grid(spec, opts);

  Table table({"dataset", "1 bit", "2 bits", "3 bits"});
  bool slc_wins_everywhere = true;
  for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
    std::vector<std::string> row{dataset_name(opts.datasets[d])};
    const double slc = grid.at(0, 0, d).mteps_per_watt();
    for (std::size_t c = 0; c < 3; ++c) {
      const double eff = grid.at(c, 0, d).mteps_per_watt();
      if (c > 0 && eff >= slc) slc_wins_everywhere = false;
      row.push_back(Table::num(eff, 0));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  bench::paper_note("SLC outperforms MLC on every dataset (§7.2.1)");
  bench::measured_note(std::string("SLC best on every dataset: ") +
                       (slc_wins_everywhere ? "yes" : "NO (check model)"));
  opts.finish();
  return 0;
}
