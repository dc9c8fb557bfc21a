// Fig. 16: energy efficiency (MTEPS/W) of the seven evaluated
// configurations — CPU+DRAM, CPU+DRAM-opt, acc+DRAM, acc+ReRAM,
// acc+SRAM+DRAM, acc+HyVE, acc+HyVE-opt — for BFS / CC / PR on all five
// datasets.
//
// Headline multipliers (paper): acc+HyVE = 1.51x / 3.10x / 4.03x over
// acc+SRAM+DRAM / acc+ReRAM / acc+DRAM; acc+HyVE-opt = 5.90x over
// acc+DRAM and ~2 orders of magnitude over the CPUs.
#include <iostream>
#include <map>

#include "baselines/cpu.hpp"
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig16",
      "Fig. 16: energy efficiency of all seven evaluated configurations");
  bench::header("Fig. 16", "Energy efficiency across configurations");

  const std::size_t num_datasets = opts.datasets.size();
  const CpuBaseline cpu_kinds[] = {CpuBaseline::kNaive,
                                   CpuBaseline::kOptimized};

  // Accelerator rows through the sweep engine; the CPU baselines price one
  // shared whole-graph pass per (algorithm, dataset), as a cell list.
  exp::SweepSpec spec;
  spec.configs = fig16_accelerator_configs();
  spec.algorithms.assign(std::begin(kCoreAlgorithms),
                         std::end(kCoreAlgorithms));
  spec.graphs = bench::dataset_keys(opts);
  const bench::GridResults grid = bench::run_grid(spec, opts);

  const std::vector<double> cpu_eff = bench::run_cells(
      std::size(cpu_kinds) * spec.algorithms.size() * num_datasets, opts,
      [&](std::size_t i) {
        const CpuBaseline kind = cpu_kinds[i / (spec.algorithms.size() *
                                                num_datasets)];
        const Algorithm algo =
            spec.algorithms[(i / num_datasets) % spec.algorithms.size()];
        const DatasetId id = opts.datasets[i % num_datasets];
        return CpuModel(kind)
            .run(algo, bench::whole_graph_functional(id, algo))
            .mteps_per_watt();
      });
  const auto cpu_at = [&](std::size_t kind, std::size_t algo,
                          std::size_t dataset) {
    return cpu_eff[(kind * spec.algorithms.size() + algo) * num_datasets +
                   dataset];
  };

  std::vector<std::string> columns{"config"};
  for (const DatasetId id : opts.datasets) columns.push_back(dataset_name(id));

  std::map<std::string, std::vector<double>> efficiency;  // per config
  // (algorithm, dataset) cells where some row is not more efficient than
  // the row above it, against the paper's seven-configuration ordering.
  std::vector<std::string> unordered;
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    std::cout << "\n--- " << algorithm_name(spec.algorithms[a])
              << " (MTEPS/W) ---\n";
    Table table(columns);
    std::vector<double> above(num_datasets, 0.0);
    std::vector<bool> ordered(num_datasets, true);
    const auto add_row = [&](const std::string& label, int digits,
                             const auto& eff_at) {
      std::vector<std::string> row{label};
      for (std::size_t d = 0; d < num_datasets; ++d) {
        const double eff = eff_at(d);
        row.push_back(Table::num(eff, digits));
        efficiency[label].push_back(eff);
        ordered[d] = ordered[d] && eff > above[d];
        above[d] = eff;
      }
      table.add_row(std::move(row));
    };
    for (std::size_t k = 0; k < std::size(cpu_kinds); ++k)
      add_row(CpuModel::label(cpu_kinds[k]), 1,
              [&](std::size_t d) { return cpu_at(k, a, d); });
    for (std::size_t c = 0; c < spec.configs.size(); ++c)
      add_row(spec.configs[c].label, 0, [&](std::size_t d) {
        return grid.at(c, a, d).mteps_per_watt();
      });
    table.print(std::cout);
    for (std::size_t d = 0; d < num_datasets; ++d)
      if (!ordered[d])
        unordered.push_back(std::string(algorithm_name(spec.algorithms[a])) +
                            "/" + dataset_name(opts.datasets[d]));
  }

  auto avg_ratio = [&](const std::string& a, const std::string& b) {
    std::vector<double> r;
    for (std::size_t i = 0; i < efficiency[a].size(); ++i)
      r.push_back(efficiency[a][i] / efficiency[b][i]);
    return bench::geomean(r);
  };

  std::cout << "\naverage improvements (geomean):\n";
  Table summary({"comparison", "paper", "measured"});
  summary.add_row({"acc+HyVE vs acc+SRAM+DRAM", "1.51x",
                   Table::num(avg_ratio("acc+HyVE", "acc+SRAM+DRAM"), 2) + "x"});
  summary.add_row({"acc+HyVE vs acc+ReRAM", "3.10x",
                   Table::num(avg_ratio("acc+HyVE", "acc+ReRAM"), 2) + "x"});
  summary.add_row({"acc+HyVE vs acc+DRAM", "4.03x",
                   Table::num(avg_ratio("acc+HyVE", "acc+DRAM"), 2) + "x"});
  summary.add_row({"acc+HyVE vs CPU+DRAM", "114.42x",
                   Table::num(avg_ratio("acc+HyVE", "CPU+DRAM"), 1) + "x"});
  summary.add_row({"acc+HyVE vs CPU+DRAM-opt", "83.31x",
                   Table::num(avg_ratio("acc+HyVE", "CPU+DRAM-opt"), 1) + "x"});
  summary.add_row({"acc+HyVE-opt vs acc+SRAM+DRAM", "2.00x",
                   Table::num(avg_ratio("acc+HyVE-opt", "acc+SRAM+DRAM"), 2) +
                       "x"});
  summary.add_row({"acc+HyVE-opt vs acc+ReRAM", "4.54x",
                   Table::num(avg_ratio("acc+HyVE-opt", "acc+ReRAM"), 2) + "x"});
  summary.add_row({"acc+HyVE-opt vs acc+DRAM", "5.90x",
                   Table::num(avg_ratio("acc+HyVE-opt", "acc+DRAM"), 2) + "x"});
  summary.add_row({"acc+HyVE-opt vs CPU+DRAM", "145.71x",
                   Table::num(avg_ratio("acc+HyVE-opt", "CPU+DRAM"), 1) + "x"});
  summary.print(std::cout);

  const std::string verdict = bench::cell_verdict(
      "the seven-configuration ordering (MTEPS/W rising down each table) "
      "holds",
      spec.algorithms.size() * num_datasets, unordered,
      "ordering reproduced everywhere");
  bench::paper_note("see the 'paper' column of the summary");
  bench::measured_note(
      verdict +
      "; note the paper's own two multiplier sets (vs acc+HyVE and vs "
      "acc+HyVE-opt) are mutually inconsistent by ~1.7x, so per-cell "
      "agreement within ~2x is the attainable target");
  opts.finish();
  return 0;
}
