// Block-level frontier tracking — an extension on top of the paper's
// dense edge-centric model.
//
// HyVE (like X-Stream) streams EVERY edge each iteration. For monotone
// relaxation algorithms (BFS, CC, SSSP) a block B[x][y] can be skipped
// exactly when no vertex of source interval I_x changed in the previous
// iteration: its edges cannot relax anything. ForeGraph-class designs
// track this with one bit per interval; the non-volatile edge memory
// makes it especially attractive because skipped blocks stay power-gated.
//
// PageRank's apply phase touches every vertex every iteration, and
// SpMV never reaches a second pass, so the walk cannot narrow them
// (frontier_tracks_activity): it degenerates to full passes, and the
// trace matches the dense model exactly (tested). Callers that already
// hold the dense result build that trace with full_pass_trace instead
// of walking again.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/runner.hpp"
#include "graph/partition.hpp"

namespace hyve {

struct FrontierTrace {
  // One processed block of an iteration: the flattened block index
  // (x * P + y) and the number of edges it contained. Skipped and empty
  // blocks are not stored; on the later frontier iterations of BFS/SSSP
  // only a handful of blocks remain active, so the sparse form is far
  // smaller than the dense iter x P^2 table it replaces.
  struct BlockCount {
    std::uint64_t block = 0;
    std::uint64_t edges = 0;
  };

  std::uint32_t num_intervals = 0;
  // iteration_blocks[iter] = the non-empty blocks processed in that
  // iteration, sorted by flattened block index.
  std::vector<std::vector<BlockCount>> iteration_blocks;
  FunctionalResult result;  // edges_traversed counts processed edges only

  std::uint32_t iterations() const {
    return static_cast<std::uint32_t>(iteration_blocks.size());
  }

  // Dense-compatible accessor: edges processed in block (x, y) during
  // `iter` (0 for skipped/empty blocks). Binary search over the sorted
  // sparse list; prefer expand_iteration() in per-iteration hot loops.
  std::uint64_t block_edges(std::uint32_t iter, std::uint32_t x,
                            std::uint32_t y) const;

  // Expands one iteration into a dense P*P table (resized and zeroed).
  void expand_iteration(std::uint32_t iter,
                        std::vector<std::uint64_t>& dense) const;

  // Marks active[x] = 1 for every source interval x with at least one
  // processed block in `iter` (others 0; resized to P).
  void source_activity(std::uint32_t iter, std::vector<char>& active) const;

  std::uint64_t edges_in_iteration(std::uint32_t iter) const;
  std::uint64_t active_blocks_in_iteration(std::uint32_t iter) const;

  // Always 0: the walk skips whole source intervals and replays no
  // block. Kept only because perfbench's traced reps read it.
  std::uint64_t blocks_skipped = 0;

  // Honest size estimate for cache accounting.
  std::size_t approx_bytes() const;
};

// Always false. Kept only because perfbench's traced reps ask it whether
// to build a source-block index.
bool pattern_reuse_enabled();

// Whether run_frontier's skipping can ever narrow `program`'s passes:
// false for apply-phase programs, which rewrite every vertex each
// iteration, and for single-pass ones. For those the walk streams every
// non-empty block of every pass and skips none.
bool frontier_tracks_activity(const VertexProgram& program);

// The trace run_frontier returns for a program it cannot narrow
// (frontier_tracks_activity false), built from the dense run's `result`
// over the same schedule: every non-empty block of `schedule` in each of
// result.iterations passes, no skips. Equal to the walk's trace field
// for field (tested).
FrontierTrace full_pass_trace(const Partitioning& schedule,
                              const FunctionalResult& result);

// Runs `program` to convergence, skipping blocks with inactive source
// intervals. Results are identical to the dense run for programs whose
// process_edge() returns false whenever the destination is unchanged.
FrontierTrace run_frontier(const Graph& graph, VertexProgram& program,
                           const Partitioning& schedule);

}  // namespace hyve
