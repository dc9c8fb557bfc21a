// Fig. 21: overall GraphR vs HyVE comparison — delay, energy and EDP
// ratios (GraphR/HyVE, > 1 favours HyVE) for BFS, CC, PR, SSSP and SpMV
// on all five datasets.
//
// Paper: HyVE is 5.12x faster with 2.83x lower energy, i.e. 17.63x lower
// EDP, because GraphR must write every edge into a crossbar (3.91 nJ,
// 50.88 ns) before computing on it.
#include <algorithm>
#include <iostream>

#include "baselines/graphr.hpp"
#include "bench/common.hpp"
#include "graph/stats.hpp"
#include "memmodel/techparams.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig21",
      "Fig. 21: GraphR vs HyVE delay, energy, and EDP ratios");
  bench::header("Fig. 21", "GraphR/HyVE delay, energy, EDP (>1 favours HyVE)");

  const std::size_t num_datasets = opts.datasets.size();
  const std::size_t num_algos = std::size(kAllAlgorithms);

  // GraphR's 8x8 block occupancy depends on the graph alone: one per
  // dataset, shared by all five algorithms.
  const std::vector<BlockOccupancy> occupancy =
      bench::run_cells(num_datasets, opts, [&](std::size_t d) {
        return block_occupancy(dataset_graph(opts.datasets[d]),
                               tech::kCrossbarDim);
      });

  struct Cell {
    double delay;
    double energy;
  };
  const std::vector<Cell> cells = bench::run_cells(
      num_algos * num_datasets, opts, [&](std::size_t i) {
        const Algorithm algo = kAllAlgorithms[i / num_datasets];
        const DatasetId id = opts.datasets[i % num_datasets];
        const RunReport h =
            bench::run_dataset(HyveConfig::hyve_opt(), id, algo);
        const GraphRReport r =
            GraphRModel().run(dataset_graph(id), algo,
                              bench::whole_graph_functional(id, algo),
                              occupancy[i % num_datasets]);
        return Cell{r.exec_time_ns / h.exec_time_ns,
                    r.total_energy_pj() / h.total_energy_pj()};
      });

  Table table({"algorithm", "dataset", "delay (G/H)", "energy (G/H)",
               "EDP (G/H)"});
  std::vector<double> delays, energies, edps;
  std::vector<std::string> failing;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double d = cells[i].delay;
    const double e = cells[i].energy;
    const std::string algo = algorithm_name(kAllAlgorithms[i / num_datasets]);
    const std::string dataset = dataset_name(opts.datasets[i % num_datasets]);
    table.add_row({algo, dataset, Table::num(d, 2), Table::num(e, 2),
                   Table::num(d * e, 2)});
    delays.push_back(d);
    energies.push_back(e);
    edps.push_back(d * e);
    if (!(d > 1 && e > 1)) failing.push_back(algo + "/" + dataset);
  }
  table.print(std::cout);

  Table summary({"metric", "paper", "measured (geomean)"});
  summary.add_row({"speedup", "5.12x", Table::num(bench::geomean(delays), 2) + "x"});
  summary.add_row(
      {"energy reduction", "2.83x", Table::num(bench::geomean(energies), 2) + "x"});
  summary.add_row({"EDP reduction", "17.63x", Table::num(bench::geomean(edps), 2) + "x"});
  summary.print(std::cout);

  bench::paper_note("5.12x / 2.83x / 17.63x (delay / energy / EDP)");
  bench::measured_note(bench::cell_verdict(
      "HyVE is faster and uses less energy", cells.size(), failing,
      "HyVE wins every cell"));
  opts.finish();
  return 0;
}
