// Fig. 15: energy-efficiency improvement from bank-level power gating
// (§4.1), per algorithm and dataset — the non-volatile edge memory keeps
// one bank awake under the sequential scan and gates the rest.
//
// Paper: 1.53x average over acc+HyVE.
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig15",
      "Fig. 15: energy-efficiency improvement from bank-level power gating");
  bench::header("Fig. 15", "Power-gating improvement (w/ vs w/o BPG)");

  const HyveConfig gated = HyveConfig::hyve_opt();
  HyveConfig ungated = gated;
  ungated.power_gating = false;
  ungated.label += "/PG off";

  exp::SweepSpec spec;
  spec.configs = {ungated, gated};
  spec.algorithms.assign(std::begin(kCoreAlgorithms),
                         std::end(kCoreAlgorithms));
  spec.graphs = bench::dataset_keys(opts);
  const bench::GridResults grid = bench::run_grid(spec, opts);

  Table table({"algorithm", "dataset", "w/o PG (MTEPS/W)", "w/ PG (MTEPS/W)",
               "improvement", "edge-mem bg saved"});
  std::vector<double> all;
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    for (std::size_t d = 0; d < opts.datasets.size(); ++d) {
      const RunReport& ru = grid.at(0, a, d);
      const RunReport& rg = grid.at(1, a, d);
      const double improvement = rg.mteps_per_watt() / ru.mteps_per_watt();
      const double saved =
          1.0 - rg.energy[EnergyComponent::kEdgeMemBackground] /
                    ru.energy[EnergyComponent::kEdgeMemBackground];
      table.add_row({algorithm_name(spec.algorithms[a]),
                     dataset_name(opts.datasets[d]),
                     Table::num(ru.mteps_per_watt(), 0),
                     Table::num(rg.mteps_per_watt(), 0),
                     Table::num(improvement, 2) + "x",
                     Table::num(saved * 100.0, 1) + "%"});
      all.push_back(improvement);
    }
  }
  table.print(std::cout);
  std::cout << "average improvement: " << Table::num(bench::geomean(all), 2)
            << "x\n";

  bench::paper_note("1.53x average improvement over acc+HyVE");
  bench::measured_note(
      "BPG removes most of the edge-memory background on every workload; "
      "average printed above");
  opts.finish();
  return 0;
}
