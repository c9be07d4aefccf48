// Simulated-annealing placement of clustered logic blocks onto the fabric
// grid, plus I/O-terminal-to-pad assignment.
//
// The cost function is the half-perimeter wirelength (HPWL) of every net,
// summed over contexts (a net active in several contexts counts once per
// context — multi-context routing pressure is real pressure).  Moves are
// cluster swaps / relocations and pad swaps; cluster targets are drawn
// from a move window that shrinks as acceptance falls (VPR-style range
// limiting), and the schedule is a classic geometric cooling (a factor
// of 0.9 per sweep) with a fixed sweep budget.  Placements are
// deterministic for a given seed.
//
// Move evaluation is exact and incremental: a flat CSR terminal->net index
// (place/net_index.hpp) is built once per problem, and each move updates
// only the bounding boxes of the nets incident to the moved terminals.
// Coordinates are integers, so deltas are exact int64s and the incremental
// trajectory is bit-identical to the O(nets x terminals) full-recompute
// baseline (PlacerOptions::incremental = false, bench_placer's reference).
//
// Multi-seed restarts: num_restarts independent annealers (restart r seeds
// its RNG with seed + r) run on a worker pool, and the lowest-cost result
// wins, ties broken by the lowest restart index — so the outcome is
// deterministic for a fixed seed set regardless of thread count or timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/rng.hpp"

namespace mcfpga::place {

/// A placeable endpoint: a logic-block cluster or an I/O terminal.
struct Terminal {
  enum class Kind : std::uint8_t { kCluster, kIo };
  Kind kind = Kind::kCluster;
  std::size_t id = 0;  ///< Cluster index or I/O terminal index.

  static Terminal cluster(std::size_t id) {
    return Terminal{Kind::kCluster, id};
  }
  static Terminal io(std::size_t id) { return Terminal{Kind::kIo, id}; }
};

struct PlacementNet {
  Terminal driver;
  std::vector<Terminal> sinks;
  /// Contexts in which the net is live (its HPWL weight).
  std::size_t weight = 1;
  /// Timing criticality in [0, 1] (logic-depth or post-route STA); only
  /// consulted when PlacerOptions::timing_mode multiplies it into the
  /// net's effective HPWL weight.
  double criticality = 0.0;
};

struct PlacementProblem {
  std::size_t num_clusters = 0;
  std::size_t num_io_terminals = 0;
  std::vector<PlacementNet> nets;
};

struct PlacerOptions {
  /// Annealing seed.  kSeedFromFlow (0) lets the compile flow substitute
  /// its own seed (core::PlaceStage); place() itself treats it literally.
  static constexpr std::uint64_t kSeedFromFlow = 0;
  std::uint64_t seed = kSeedFromFlow;
  /// Annealing sweeps of moves_per_sweep(problem) moves; the closure
  /// loop's refine anneal halves them and scales the temperature down.
  std::size_t sweeps = 64;
  double initial_temperature_factor = 0.1;  ///< T0 = factor * initial cost
  /// Exact incremental delta evaluation (false = full recompute per move;
  /// same trajectory bit for bit, kept as bench_placer's reference).
  bool incremental = true;
  /// Independent annealing restarts; restart r uses seed + r, best cost
  /// wins (ties -> lowest restart index).
  std::size_t num_restarts = 1;
  /// Worker threads for restarts.  0 = one per hardware thread, capped at
  /// num_restarts; results are identical regardless of the value.
  std::size_t num_threads = 0;
  /// Timing-driven cost: each net's HPWL weight becomes
  ///   weight * (1 + round(criticality * kTimingWeight)),
  /// an integer, so the incremental evaluator stays exact and trajectories
  /// stay deterministic.  Off = criticalities ignored, bit-identical to
  /// the pure-HPWL placer.
  bool timing_mode = false;

  bool operator==(const PlacerOptions&) const = default;

  /// Throws InvalidArgument on out-of-range values (zero sweep/restart
  /// budget, non-positive temperature factor).  Called by place().
  void validate() const;
};

/// Strength of timing mode's criticality bump: a fully critical net weighs
/// (1 + kTimingWeight)x its wirelength weight.
inline constexpr double kTimingWeight = 4.0;

/// The annealer's per-net weight: the context count, criticality-bumped in
/// timing mode.  Exposed so placement_cost() and the NetIndex agree.
std::int64_t effective_net_weight(const PlacementNet& net,
                                  const PlacerOptions& options);

/// Attempted moves per annealing sweep: 16 per cluster and I/O terminal,
/// plus 16.  Also the delta path's measure of the anneal it skipped.
std::size_t moves_per_sweep(const PlacementProblem& problem);

/// Outcome of one annealing restart (all restarts are reported, not just
/// the winner, so callers can attribute time and quality per seed).
struct RestartStat {
  std::uint64_t seed = 0;
  double cost = 0.0;
  double seconds = 0.0;  ///< Wall clock of this restart's anneal.
};

struct Placement {
  /// cluster -> cell coordinates.
  std::vector<std::pair<std::size_t, std::size_t>> cluster_pos;
  /// io terminal -> pad index (into RoutingGraph::pad()).
  std::vector<std::size_t> io_pads;
  double cost = 0.0;

  /// One entry per restart, in restart order (deterministic apart from
  /// the wall-clock seconds).
  std::vector<RestartStat> restart_stats;
  std::size_t winning_restart = 0;
};

/// Places the problem onto `graph`'s fabric.  Throws FlowError when the
/// fabric has too few cells or pads.
///
/// `initial` (may be null) warm-starts every restart's anneal from the
/// given placement instead of the scan-order seed — the timing-closure
/// loop's re-place, typically paired with a reduced temperature so the
/// refine run perturbs rather than scrambles.  Its cluster_pos/io_pads
/// must match the problem (InvalidArgument otherwise).
Placement place(const PlacementProblem& problem,
                const arch::RoutingGraph& graph, const PlacerOptions& options,
                const Placement* initial = nullptr);

/// Cost of an explicit placement (exposed for tests and the placer itself).
/// `options` supplies the timing-mode net weighting; the default matches
/// the pure-HPWL cost.
double placement_cost(const PlacementProblem& problem,
                      const arch::RoutingGraph& graph,
                      const Placement& placement,
                      const PlacerOptions& options = {});

}  // namespace mcfpga::place
