#include "baselines/cpu.hpp"

#include "memmodel/techparams.hpp"
#include "util/units.hpp"

namespace hyve {

using namespace tech;

double CpuReport::mteps_per_watt() const {
  return units::mteps_per_watt(static_cast<double>(edges_traversed),
                               energy_pj);
}

std::string CpuModel::label(CpuBaseline kind) {
  return kind == CpuBaseline::kNaive ? "CPU+DRAM" : "CPU+DRAM-opt";
}

CpuReport CpuModel::run(Algorithm algorithm,
                        const FunctionalResult& whole_graph) const {
  CpuReport report;
  report.config_label = label(kind_);
  report.algorithm = algorithm_name(algorithm);
  report.iterations = whole_graph.iterations;
  report.edges_traversed = whole_graph.edges_traversed;

  const double ns_per_edge =
      kind_ == CpuBaseline::kNaive ? kCpuNaiveNsPerEdge : kCpuOptNsPerEdge;
  report.exec_time_ns =
      static_cast<double>(whole_graph.edges_traversed) * ns_per_edge;
  report.energy_pj = units::power_over(kCpuPackagePowerMw + kCpuDramPowerMw,
                                       report.exec_time_ns);
  return report;
}

CpuReport CpuModel::run(const Graph& graph, Algorithm algorithm) const {
  return run(algorithm, run_functional(graph, *make_program(algorithm)));
}

}  // namespace hyve
