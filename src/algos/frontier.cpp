#include "algos/frontier.hpp"

#include <algorithm>

#include "obs/live.hpp"
#include "util/check.hpp"

namespace hyve {

std::uint64_t FrontierTrace::block_edges(std::uint32_t iter, std::uint32_t x,
                                         std::uint32_t y) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  HYVE_CHECK(x < num_intervals && y < num_intervals);
  const std::uint64_t flat =
      static_cast<std::uint64_t>(x) * num_intervals + y;
  const auto& blocks = iteration_blocks[iter];
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), flat,
      [](const BlockCount& bc, std::uint64_t key) { return bc.block < key; });
  if (it == blocks.end() || it->block != flat) return 0;
  return it->edges;
}

void FrontierTrace::expand_iteration(std::uint32_t iter,
                                     std::vector<std::uint64_t>& dense) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  dense.assign(static_cast<std::size_t>(num_intervals) * num_intervals, 0);
  for (const BlockCount& bc : iteration_blocks[iter]) dense[bc.block] = bc.edges;
}

void FrontierTrace::source_activity(std::uint32_t iter,
                                    std::vector<char>& active) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  active.assign(num_intervals, 0);
  for (const BlockCount& bc : iteration_blocks[iter])
    active[bc.block / num_intervals] = 1;
}

std::uint64_t FrontierTrace::edges_in_iteration(std::uint32_t iter) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  std::uint64_t total = 0;
  for (const BlockCount& bc : iteration_blocks[iter]) total += bc.edges;
  return total;
}

std::uint64_t FrontierTrace::active_blocks_in_iteration(
    std::uint32_t iter) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  // Only non-empty blocks are stored, so the list length is the count.
  return iteration_blocks[iter].size();
}

std::size_t FrontierTrace::approx_bytes() const {
  std::size_t bytes = sizeof(FrontierTrace);
  for (const auto& blocks : iteration_blocks)
    bytes += sizeof(blocks) + blocks.capacity() * sizeof(BlockCount);
  return bytes;
}

bool pattern_reuse_enabled() { return false; }

bool frontier_tracks_activity(const VertexProgram& program) {
  return !program.has_apply_phase() && program.max_iterations() > 1;
}

FrontierTrace full_pass_trace(const Partitioning& schedule,
                              const FunctionalResult& result) {
  const std::uint32_t p = schedule.num_intervals();
  FrontierTrace trace;
  trace.num_intervals = p;
  trace.result = result;
  // Row-major, so sorted by flattened index as the accessors need.
  std::vector<FrontierTrace::BlockCount> pass;
  for (std::uint32_t x = 0; x < p; ++x)
    for (std::uint32_t y = 0; y < p; ++y)
      if (const std::uint64_t edges = schedule.block_edge_count(x, y))
        pass.push_back({static_cast<std::uint64_t>(x) * p + y, edges});
  trace.iteration_blocks.assign(result.iterations, pass);
  return trace;
}

FrontierTrace run_frontier(const Graph& graph, VertexProgram& program,
                           const Partitioning& schedule) {
  HYVE_CHECK_MSG(schedule.num_edges() == graph.num_edges(),
                 "schedule built for a different graph");
  program.init(schedule);
  const std::uint32_t p = schedule.num_intervals();

  FrontierTrace trace;
  trace.num_intervals = p;
  // Interval activity: all sources are candidates in the first pass.
  // Every write of block B[x][y] lands in interval y, so "any source in
  // I_y changed" is exactly "some block with destination interval y had
  // writes > 0" — interval activity needs no per-vertex bookkeeping at
  // all, whether or not the vertex map keeps intervals contiguous.
  // Apply-phase programs rewrite every vertex each iteration, so their
  // activity never narrows; single-pass programs (SpMV) never reach a
  // second iteration. Neither consumes the tracking, so it is skipped
  // wholesale for them.
  const bool tracks_activity = frontier_tracks_activity(program);
  std::vector<char> interval_active(p, 1);
  std::vector<char> next_active(tracks_activity ? p : 0, 0);

  // Per-pass block edge counts, written destination-major into a flat
  // scratch grid and compacted into the (flat-ordered) trace rows — the
  // order the binary-search accessor needs — without a sort.
  std::vector<std::uint64_t> pass_edges(static_cast<std::size_t>(p) * p, 0);

  obs::LiveTelemetry& live = obs::live_telemetry();
  bool more = true;
  while (more && trace.result.iterations < program.max_iterations()) {
    live.beat("functional.pass");
    if (tracks_activity) std::fill(next_active.begin(), next_active.end(), 0);

    for (std::uint32_t y = 0; y < p; ++y) {
      for (std::uint32_t x = 0; x < p; ++x) {
        if (!interval_active[x]) continue;  // block skipped
        const EdgeBlockSoA block = schedule.block(x, y);
        if (block.empty()) continue;
        const std::uint64_t writes = program.process_block(block);
        trace.result.destination_writes += writes;
        if (tracks_activity && writes > 0) next_active[y] = 1;
        trace.result.edges_traversed += block.size();
        pass_edges[static_cast<std::size_t>(x) * p + y] = block.size();
      }
    }

    ++trace.result.iterations;
    more = program.end_iteration(trace.result.iterations);
    std::size_t non_empty = 0;
    for (std::uint64_t flat = 0; flat < pass_edges.size(); ++flat)
      non_empty += pass_edges[flat] != 0 ? 1 : 0;
    std::vector<FrontierTrace::BlockCount> this_pass;
    this_pass.reserve(non_empty);
    for (std::uint64_t flat = 0; flat < pass_edges.size(); ++flat) {
      if (pass_edges[flat] == 0) continue;
      this_pass.push_back({flat, pass_edges[flat]});
      pass_edges[flat] = 0;
    }
    trace.iteration_blocks.push_back(std::move(this_pass));

    // Activity only narrows for multi-pass, non-apply programs — the
    // apply phase rewrites every vertex (e.g. PageRank), leaving every
    // interval active, so frontier skipping degenerates safely. The
    // final iteration skips the bookkeeping outright: nothing reads it.
    if (more && tracks_activity) std::swap(interval_active, next_active);
  }
  return trace;
}

}  // namespace hyve
