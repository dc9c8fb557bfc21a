// Kernel-regression microbenchmarks: every vertex program through every
// way the functional engine can stream edges — one case per graph family
// x algorithm x {per-edge, block, block+reuse} over shared interval-block
// schedules.
//
//   per-edge     — one virtual process_edge() call per edge (the scalar
//                  reference the block kernels are diffed against)
//   block        — process_block() over each block's src/dst/hash
//                  columns (the kernels sweeps run)
//   block+reuse  — the full frontier walk (run_frontier) with
//                  per-iteration pattern reuse, i.e. what frontier sweeps
//                  actually execute; honours --no-pattern-reuse like
//                  every other frontier consumer
//
// The dense layouts must produce identical iteration counts, write
// totals and a bit-identical fingerprint of the final vertex state, and
// the frontier walk the same fingerprint — the binary aborts otherwise,
// so a kernel that drifts from the per-edge reference cannot time
// anything. The verdict is per (graph, algorithm) case: the block
// kernel must beat per-edge in every case, and the worst case of each
// speedup is named, so one outlier cannot hide behind a geomean.
//
// Under --smoke each case still runs once (the equivalence checks stay),
// but the reported seconds are deterministic work proxies (edges the host
// actually streamed / 1e9), so stdout and --json are byte-identical
// across runs and --jobs values. These are engineering benchmarks for
// the library itself; the per-table/figure reproductions live in the
// bench_table*/bench_fig* binaries.
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/gas.hpp"
#include "algos/pagerank.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "bench/common.hpp"
#include "graph/generators.hpp"

namespace {

using namespace hyve;
using clock_type = std::chrono::steady_clock;

constexpr std::uint32_t kNumIntervals = 64;

// FNV-1a over the raw bytes of a program's final vertex state. Doubles
// are hashed bit-exactly: the layouts preserve edge order (and the
// frontier walk only skips provably write-free blocks), so even the
// floating-point programs must match to the last bit.
template <typename T>
std::uint64_t fingerprint(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const T& value : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct ProgramCase {
  const char* label;
  std::unique_ptr<VertexProgram> (*make)();
  std::uint64_t (*state_fingerprint)(const VertexProgram&);
};

const ProgramCase kPrograms[] = {
    {"BFS", [] { return make_program(Algorithm::kBfs); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const BfsProgram&>(p).distances());
     }},
    {"CC", [] { return make_program(Algorithm::kCc); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const CcProgram&>(p).labels());
     }},
    {"PR", [] { return make_program(Algorithm::kPageRank); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const PageRankProgram&>(p).ranks());
     }},
    {"SSSP", [] { return make_program(Algorithm::kSssp); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const SsspProgram&>(p).distances());
     }},
    {"SpMV", [] { return make_program(Algorithm::kSpmv); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const SpmvProgram&>(p).result());
     }},
    {"REACH",
     []() -> std::unique_ptr<VertexProgram> {
       return std::make_unique<GasProgram<std::uint32_t>>(
           make_reachability_program(0));
     },
     [](const VertexProgram& p) {
       return fingerprint(
           dynamic_cast<const GasProgram<std::uint32_t>&>(p).values());
     }},
};
constexpr std::size_t kNumPrograms = std::size(kPrograms);

enum class Layout { kPerEdge, kBlock, kBlockReuse };
constexpr Layout kLayouts[] = {Layout::kPerEdge, Layout::kBlock,
                               Layout::kBlockReuse};
constexpr std::size_t kNumLayouts = std::size(kLayouts);

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kPerEdge: return "per-edge";
    case Layout::kBlock: return "block";
    case Layout::kBlockReuse: return "block+reuse";
  }
  return "?";
}

struct RunOutcome {
  std::uint32_t iterations = 0;
  std::uint64_t writes = 0;          // process_edge() returned true
  std::uint64_t edges_streamed = 0;  // edges the host actually visited
  std::uint64_t checksum = 0;        // fingerprint of the final state
};

// Runs `program` to convergence through one layout's dispatch path, in
// the same destination-major block order for all of them. block+reuse is
// the real frontier walk: its edges_streamed subtracts both the blocks
// interval skipping never visited and the ones pattern reuse replayed.
RunOutcome run_layout(const Graph& g, const Partitioning& part,
                      VertexProgram& program, Layout layout) {
  RunOutcome out;
  if (layout == Layout::kBlockReuse) {
    const FrontierTrace trace = run_frontier(g, program, part);
    out.iterations = trace.result.iterations;
    out.writes = trace.result.destination_writes;
    out.edges_streamed = trace.result.edges_traversed - trace.edges_skipped;
    return out;
  }
  program.init(g);
  bool more = true;
  while (more && out.iterations < program.max_iterations()) {
    for (std::uint32_t y = 0; y < kNumIntervals; ++y) {
      for (std::uint32_t x = 0; x < kNumIntervals; ++x) {
        const EdgeBlockSoA block = part.block(x, y);
        if (layout == Layout::kBlock) {
          out.writes += program.process_block(block);
        } else {
          for (std::size_t i = 0; i < block.size(); ++i)
            out.writes += program.process_edge(block.edge(i)) ? 1 : 0;
        }
      }
    }
    out.edges_streamed += g.num_edges();
    ++out.iterations;
    more = program.end_iteration(out.iterations);
  }
  return out;
}

struct Cell {
  RunOutcome outcome;
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_micro",
      "kernel-regression suite: algorithm x edge-layout grid with "
      "cross-layout equivalence checks");
  bench::header("Kernels",
                "Vertex-program kernels per edge layout (identical results "
                "enforced)");

  // Two synthetic families, one schedule each, shared by every cell:
  // Erdős–Rényi at mean degree 6 (no hubs, a scattered frontier that
  // narrows over ~5 passes — the regime block-level pattern reuse
  // targets) and Barabási–Albert (heavy-tail, hub-rooted traversals that
  // converge in a burst and then coast on clean blocks). Smaller under
  // --smoke so the determinism ctest stays quick. The weight columns
  // of SSSP (64) and SpMV (1024), the out-degree table and the reuse
  // index (all built on first use) are forced here, outside any
  // stopwatch — sweeps amortise them across a whole grid the same way.
  struct GraphCase {
    const char* label;     // table column
    std::string key;       // --json graph key
    Graph graph;
    Partitioning part;
  };
  const auto make_case = [&](const char* label, std::string key, Graph g) {
    Partitioning part(g, kNumIntervals);
    part.edge_columns().weights(64);
    part.edge_columns().weights(1024);
    g.out_degrees();
    part.source_block_index();
    return GraphCase{label, std::move(key), std::move(g), std::move(part)};
  };
  std::vector<GraphCase> graphs;
  graphs.push_back(
      opts.smoke
          ? make_case("er", "er-20000x60000",
                      generate_erdos_renyi(20000, 60000, 0xBE7C))
          : make_case("er", "er-100000x300000",
                      generate_erdos_renyi(100000, 300000, 0xBE7C)));
  graphs.push_back(
      opts.smoke
          ? make_case("ba", "ba-20000x6",
                      generate_barabasi_albert(20000, 6, 0xBE7C))
          : make_case("ba", "ba-100000x6",
                      generate_barabasi_albert(100000, 6, 0xBE7C)));

  const std::size_t cells_per_graph = kNumPrograms * kNumLayouts;
  const auto cells = bench::run_cells(
      graphs.size() * cells_per_graph, opts, [&](std::size_t i) {
        const GraphCase& gc = graphs[i / cells_per_graph];
        const Graph& graph = gc.graph;
        const Partitioning& part = gc.part;
        const ProgramCase& pc = kPrograms[(i % cells_per_graph) / kNumLayouts];
        const Layout layout = kLayouts[i % kNumLayouts];
        Cell cell;
        if (opts.smoke) {
          const auto program = pc.make();
          cell.outcome = run_layout(graph, part, *program, layout);
          cell.outcome.checksum = pc.state_fingerprint(*program);
          cell.seconds =
              static_cast<double>(cell.outcome.edges_streamed) / 1e9;
          return cell;
        }
        // Best of three, stopwatch serialised against other cells so
        // --jobs > 1 cannot perturb the measurement.
        cell.seconds = 1e100;
        const std::scoped_lock timing(bench::timing_mutex());
        for (int rep = 0; rep < 3; ++rep) {
          const auto program = pc.make();
          const auto start = clock_type::now();
          cell.outcome = run_layout(graph, part, *program, layout);
          const auto stop = clock_type::now();
          cell.outcome.checksum = pc.state_fingerprint(*program);
          cell.seconds = std::min(
              cell.seconds, std::chrono::duration<double>(stop - start).count());
        }
        return cell;
      });

  // The regression gate: the three dense layouts must agree exactly —
  // iteration count, write total and final-state fingerprint. The
  // frontier walk is held to the fingerprint only: skipping a block
  // forfeits that pass's in-pass propagation through it, so it may take
  // an extra iteration (with correspondingly fewer intermediate writes)
  // on its way to the bit-identical final state.
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t a = 0; a < kNumPrograms; ++a) {
      const std::size_t base = g * cells_per_graph + a * kNumLayouts;
      const RunOutcome& ref = cells[base].outcome;
      for (std::size_t l = 1; l < kNumLayouts; ++l) {
        const RunOutcome& got = cells[base + l].outcome;
        const bool dense = kLayouts[l] != Layout::kBlockReuse;
        HYVE_CHECK_MSG((!dense || (got.iterations == ref.iterations &&
                                   got.writes == ref.writes)) &&
                           got.checksum == ref.checksum,
                       kPrograms[a].label
                           << " " << layout_name(kLayouts[l]) << " on "
                           << graphs[g].label << " diverged from per-edge: "
                           << got.iterations << "/" << got.writes << "/"
                           << got.checksum << " vs " << ref.iterations << "/"
                           << ref.writes << "/" << ref.checksum);
      }
    }
  }

  // Speedups are per (graph, algorithm) case; the verdict names each
  // worst case instead of averaging it away.
  struct WorstCase {
    double ratio = 0;
    std::string name;
  };
  const auto track_worst = [](WorstCase& worst, double ratio,
                              const std::string& name) {
    if (worst.name.empty() || ratio < worst.ratio) worst = {ratio, name};
  };
  Table table({"graph", "algorithm", "layout", "iters", "Medges streamed",
               "ms", "vs per-edge"});
  WorstCase block_worst;
  WorstCase reuse_worst;
  std::size_t block_wins = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t a = 0; a < kNumPrograms; ++a) {
      const std::size_t base = g * cells_per_graph + a * kNumLayouts;
      const double per_edge_s = cells[base].seconds;  // kLayouts[0]
      for (std::size_t l = 0; l < kNumLayouts; ++l) {
        const Cell& cell = cells[base + l];
        table.add_row({graphs[g].label, kPrograms[a].label,
                       layout_name(kLayouts[l]),
                       std::to_string(cell.outcome.iterations),
                       Table::num(static_cast<double>(
                                      cell.outcome.edges_streamed) /
                                      1e6,
                                  2),
                       Table::num(cell.seconds * 1e3, 2),
                       Table::num(per_edge_s / cell.seconds, 2) + "x"});
      }
      const std::string case_name =
          std::string(graphs[g].label) + " " + kPrograms[a].label;
      const double block_s = cells[base + 1].seconds;
      const double block_speedup = per_edge_s / block_s;
      block_wins += block_speedup > 1.0 ? 1 : 0;
      track_worst(block_worst, block_speedup, case_name);
      track_worst(reuse_worst, block_s / cells[base + 2].seconds, case_name);
    }
  }
  table.print(std::cout);

  // Recorded so --json runs land in the perf history: one synthetic run
  // per cell whose exec time is the kernel measurement (all of it
  // attributed to the process phase; there is no simulated machine here).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    RunReport report;
    report.config_label =
        std::string("kernel:") + layout_name(kLayouts[i % kNumLayouts]);
    report.algorithm = kPrograms[(i % cells_per_graph) / kNumLayouts].label;
    report.num_intervals = kNumIntervals;
    report.iterations = cell.outcome.iterations;
    report.edges_traversed = cell.outcome.edges_streamed;
    report.exec_time_ns = cell.seconds * 1e9;
    report.phases.time(Phase::kProcess) = report.exec_time_ns;
    bench::record_report(graphs[i / cells_per_graph].key, report);
  }

  bench::paper_note(
      "engineering suite, not a paper figure: the functional engine must "
      "get faster without changing a single result");
  // Under --smoke both dense layouts report the same work proxy, so the
  // ratios are 1.00 by construction and there is nothing to judge.
  const std::size_t num_cases = graphs.size() * kNumPrograms;
  std::ostringstream measured;
  measured << "block beats per-edge in " << block_wins << " of " << num_cases
           << " cases (worst " << Table::num(block_worst.ratio, 2) << "x, "
           << block_worst.name << "); block+reuse vs block: worst "
           << Table::num(reuse_worst.ratio, 2) << "x (" << reuse_worst.name
           << "); ";
  if (opts.smoke)
    measured << "smoke: work proxies, not wall clock, no verdict";
  else
    measured << "\"the block kernel beats per-edge in every case\" "
             << (block_wins == num_cases ? "holds" : "does not hold");
  bench::measured_note(measured.str());
  opts.finish();
  return 0;
}
