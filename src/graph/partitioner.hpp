// Pluggable partitioning strategies over the interval-block layout.
//
// A Partitioner decides which interval every vertex lives in (a
// VertexMap); the Partitioning built over that map is what the machine
// schedules. Three strategies ship:
//
//   * interval      — the paper's equal-width index split (§2.1, Fig. 1);
//   * hep:tau=T     — degree-aware hybrid in the HEP (split-merge
//     partitioner) style: vertices whose degree exceeds T × the average
//     are marked in a dense bitset and placed first, highest degree
//     first, onto the least-loaded interval via a min-heap; the
//     low-degree remainder streams in id order onto the interval holding
//     most of its already-placed neighbours;
//   * splitmerge:chunks=C — one-pass bounded-memory streaming: the edge
//     stream first-touch-splits vertices into C×P small chunks, which a
//     merge pass then bin-packs into the P intervals, largest edge load
//     first.
//
// Every strategy caps interval populations at ceil(V/P) — the occupancy
// the equal-width split achieves — so the SRAM sizing contract behind
// HyveMachine::choose_num_intervals holds for any strategy.
//
// PartitionerSpec is the value identity of a strategy + parameters: its
// to_string() form keys PartitionCache entries and annotates config
// labels, and parse_partitioner() is the exact inverse (the
// parse_config_label convention).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "graph/partition.hpp"

namespace hyve {

enum class PartitionStrategy { kIntervalBlock, kHep, kSplitMerge };

struct PartitionerSpec {
  PartitionStrategy strategy = PartitionStrategy::kIntervalBlock;
  // High-degree threshold in multiples of the average degree (hep).
  double hep_tau = 2.0;
  // Split chunks per interval in the streaming split pass (splitmerge).
  std::uint32_t splitmerge_chunks = 8;

  bool is_default() const {
    return strategy == PartitionStrategy::kIntervalBlock;
  }

  // Canonical text form: "interval", "hep:tau=2", "splitmerge:chunks=8".
  // parse_partitioner(to_string()) round-trips to an equal spec.
  std::string to_string() const;

  // Throws InvariantError on out-of-range parameters (tau <= 0,
  // chunks == 0).
  void validate() const;

  friend bool operator==(const PartitionerSpec&,
                         const PartitionerSpec&) = default;
};

// Inverse of PartitionerSpec::to_string — the single source of truth for
// string→PartitionerSpec mapping. Accepts the bare strategy names
// ("interval", "hep", "splitmerge") with default parameters and the
// parameterised forms ("hep:tau=1.5", "splitmerge:chunks=16"); returns
// nullopt for anything else (CLI handlers turn that into exit 2).
std::optional<PartitionerSpec> parse_partitioner(const std::string& text);

// Strategy interface: produces the vertex→interval assignment; the
// edge grouping over it is shared by all strategies.
//
// Both calls take an optional vertex permutation (hash_permutation, the
// §4.3 hash balancing). With one, every strategy reads g's edges through
// it and walks vertices in permuted-id order, so the map and schedule
// equal those of g.hashed_remap(seed) — HEP's and splitmerge's maps
// depend on both — without that graph being built.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  // The spec this partitioner was built from (cache keys, labels).
  virtual const PartitionerSpec& spec() const = 0;

  // Assigns g's vertices (renumbered through `perm` when it is
  // non-empty) to num_intervals intervals. Requires 1 <= num_intervals
  // <= V (unless V == 0); every strategy keeps interval populations
  // <= ceil(V / num_intervals).
  virtual VertexMap map_vertices(const Graph& g, std::uint32_t num_intervals,
                                 std::span<const VertexId> perm = {}) const = 0;

  // The full interval-block schedule over map_vertices(). The mapping
  // runs inside the schedule's partition.build host span: placing the
  // vertices is part of what a strategy's schedule costs to build.
  Partitioning partition(const Graph& g, std::uint32_t num_intervals,
                         std::span<const VertexId> perm = {}) const;
};

std::unique_ptr<Partitioner> make_partitioner(const PartitionerSpec& spec);

// Downstream quality metrics of a schedule — the quantities the paper
// ties to partitioning shape: Table 1 block occupancy, Fig. 14 sharing
// traffic, Fig. 15 bank wake fraction.
struct PartitionStats {
  double n_avg = 0;                // edges per non-empty block (Table 1)
  double replication_factor = 0;   // distinct blocks per touched vertex
  double interval_balance = 1;     // max / mean interval population
  double remote_edge_fraction = 0; // edges whose PUs differ (x%N != y%N)
  double bank_wake_fraction = 0;   // non-empty blocks / total blocks
};

// O(P^2) over block edge counts plus the replication the build counted
// (Partitioning::replication()). `num_pus` is the machine's N (interval
// i lives on PU i % N, matching the accounting walk).
PartitionStats compute_partition_stats(const Partitioning& schedule,
                                       int num_pus);

}  // namespace hyve
