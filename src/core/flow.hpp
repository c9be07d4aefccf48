// End-to-end compilation flow: multi-context netlist -> programmed fabric.
//
// The flow is a pipeline of named stages (core/stages.hpp) driven by a
// FlowContext that carries every intermediate artifact plus per-stage
// wall-clock timings (the "mapping tools" the paper defers to future work,
// built here so the architecture can be exercised):
//
//   TechMapStage    — Shannon-decompose ops to the single-plane LUT size;
//   SharingStage    — structural hashing across contexts (Fig. 14a);
//   PlaneAllocStage — classes -> MCMG-LUT slots + granularity (Sec. 4);
//   ClusterStage    — slots -> logic blocks, I/O terminal discovery;
//   PlaceStage      — fabric sizing + simulated annealing over the grid
//                     (optionally criticality-weighted, placer timing_mode);
//   RouteStage      — PathFinder over the RRG (Sec. 3), contexts routed
//                     in parallel with bit-identical-to-serial results
//                     (optionally timing-driven, router timing_mode;
//                     optionally an interleaved cross-context pass,
//                     router cross_context_mode — route/schedule.hpp);
//   TimingStage     — per-context incremental STA over the routed design:
//                     TimingReports + ContextStats critical paths;
//   ProgramStage    — LUT plane tables, switch patterns, pad bindings,
//                     full fabric bitstream.
//
// compile() runs the default pipeline end to end; with
// CompileOptions::closure_iterations >= 2 the Place/Route/Timing block is
// replaced by the timing-closure loop (core/closure.hpp), which feeds
// post-route criticalities back into re-placement and re-routing until
// worst slack stops improving.  Callers that want stage reuse, ablation
// benches, or batch compilation drive the stages directly via
// core/stages.hpp.  The result carries everything needed to simulate,
// time, and price the design on both fabrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/routing_graph.hpp"
#include "config/bitstream.hpp"
#include "mapping/plane_alloc.hpp"
#include "netlist/dfg.hpp"
#include "netlist/sharing.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::core {

struct CompileOptions {
  std::uint64_t seed = 1;
  /// Placement knobs; placer.seed left at kSeedFromFlow inherits `seed`.
  place::PlacerOptions placer{};
  route::RouterOptions router{};
  /// SE/LUT delays used by every timing consumer (criticality weighting,
  /// timing-driven routing, the Timing stage's reports).  Both must be
  /// finite and >= 0; 0 is legal.
  sim::DelayParams delay{};
  /// Grow the fabric (square-ish) until clusters and I/O fit.
  bool auto_size = true;
  /// Timing-closure feedback loop: total place -> route -> STA iterations.
  /// 1 (default) = the plain one-shot pipeline, bit-identical to the
  /// eight-stage flow.  >= 2 folds post-route connection criticalities
  /// back into the placer's net weights, re-anneals at reduced
  /// temperature from the previous placement, and re-routes with the
  /// router's congestion history carried across iterations; the
  /// best-worst-slack iteration wins, so closure never ends worse than
  /// one-shot.
  std::size_t closure_iterations = 1;
  /// Minimum worst-slack improvement (SE delay units) a closure iteration
  /// must deliver over the best so far for the loop to continue; 0 =
  /// keep iterating while there is any strict improvement.
  double closure_slack_tolerance = 0.0;
  /// Adaptive refine policy for the closure loop's re-anneal.  false (the
  /// default) keeps the historical constants: temperature scale 0.02x and
  /// a halved sweep budget.  true derives both from the post-route slack
  /// distribution — a design whose slack is tight everywhere gets a
  /// larger perturbation and the full sweep budget, one with a single
  /// hot path keeps the gentle refine (deterministic either way).
  bool closure_adaptive_refine = false;
};

/// One logic block's worth of slots.
struct Cluster {
  std::vector<std::size_t> slots;       ///< Slot ids (<= LB outputs).
  lut::LutMode mode;
  /// Class ids feeding the LB input pins, pin i = pin_signals[i].
  std::vector<std::size_t> pin_signals;
};

struct ContextStats {
  std::size_t nets = 0;
  std::size_t wire_nodes_used = 0;
  std::size_t switches_crossed = 0;  ///< Sum over all connections.
  double critical_path = 0.0;        ///< From the SE delay model.
  /// Wire nodes this context shares with at least one other context
  /// (route::ContextRouteSummary::cross_context_conflicts — what the
  /// interleaved cross-context post-pass drives down).
  std::size_t cross_context_conflicts = 0;
  /// Maze-expansion engine traffic of the kept routing pass (see
  /// route::ContextRouteSummary): queue pushes/pops, lazy-deletion stale
  /// pops, and nodes actually expanded.  The heap-vs-bucket benches read
  /// these off BENCH_JSON to confirm reduced queue traffic.
  std::size_t heap_pushes = 0;
  std::size_t heap_pops = 0;
  std::size_t stale_pops = 0;
  std::size_t nodes_expanded = 0;
  /// Delta-recompile accounting (cache::CompileService::compile_incremental;
  /// both stay 0 on cold/full compiles): nets of this context whose routed
  /// tree was invalidated by the edit, and nets actually re-routed.  They
  /// differ only when the router reroutes a net it could have kept.
  std::size_t nets_invalidated = 0;
  std::size_t nets_rerouted = 0;
  /// Interleaved cross-context scheduling only (CrossContextMode::
  /// kInterleaved; 0 otherwise): nets of this context the merged worklist
  /// ripped + re-routed, and nets re-enqueued because a peer's commit
  /// changed their pressure (dirty-set churn).
  std::size_t interleave_reroutes = 0;
  std::size_t interleave_requeues = 0;
};

/// Stage-cache and delta-recompile accounting of the compile that produced
/// a design.  All-zero (the default) for plain uncached compile() calls;
/// cache::CompileService fills it from the compile's own stage lookups, its
/// ArtifactCache counters and, on the delta path, from the edit diff.
struct CacheStats {
  /// This compile's stage lookups (never another concurrent compile's):
  std::size_t hits = 0;       ///< Stage artifacts served from cache.
  std::size_t misses = 0;     ///< Stage lookups that ran the stage.
  std::size_t evictions = 0;  ///< LRU evictions so far (cache lifetime).
  std::size_t interned_patterns = 0;   ///< Distinct live ContextPatterns.
  std::size_t pattern_dedup_hits = 0;  ///< Pattern stores folded into one.
  /// Delta path only (compile_incremental that did not fall back):
  bool delta = false;                  ///< Design came from the delta path.
  std::size_t nets_invalidated = 0;    ///< Summed over contexts.
  std::size_t nets_rerouted = 0;       ///< Summed over contexts.
  std::size_t anneal_moves_saved = 0;  ///< Cold-anneal moves skipped.
  /// Incremental ProgramStage accounting (delta path only): bitstream
  /// rows copied verbatim from the cached design vs rows actually
  /// regenerated because their pattern (or the routing) changed.
  std::size_t program_rows_reused = 0;
  std::size_t program_rows_reprogrammed = 0;
  /// Why a compile_incremental call fell back to the full pipeline
  /// (empty = no fallback).
  std::string delta_fallback;
  /// Service-lifetime fallback breakdown: reason -> times a delta
  /// recompile degraded to a full compile for it (accumulated by
  /// cache::CompileService across every compile_incremental call, so
  /// operators can see WHY the delta path keeps bailing, e.g.
  /// "negotiated multi-context edit" dominating).  Printed by
  /// core/report; empty when the service never fell back.
  std::map<std::string, std::size_t> delta_fallback_counts;
};

/// Wall-clock of one pipeline stage (filled by run_pipeline).  Names
/// containing a '.' (e.g. "place.restart0") are informational
/// sub-timings that overlap their parent stage — skip them when summing
/// entries into a total wall clock.
struct StageTiming {
  std::string name;
  double seconds = 0.0;
};

/// Outcome of one place -> route -> STA closure iteration (filled by the
/// ClosureLoopStage; one entry per executed iteration, including
/// non-improving ones, so the iterations-vs-slack curve is recorded).
/// The slack budget is anchored at iteration 1's worst context critical
/// path: worst_slack = budget - critical_path, so iteration 1 scores
/// exactly 0 and every improvement is positive.
struct ClosureIterationStats {
  std::size_t iteration = 0;   ///< 1-based loop iteration.
  double critical_path = 0.0;  ///< Worst critical path over contexts.
  double worst_slack = 0.0;    ///< Iteration-1 budget minus critical_path.
  std::size_t wirelength = 0;  ///< Wire nodes used, summed over contexts.
  double seconds = 0.0;        ///< Wall clock of the whole iteration.
};

struct CompiledDesign {
  arch::FabricSpec fabric;               ///< Possibly auto-grown.
  netlist::MultiContextNetlist netlist;  ///< Post tech-map.
  netlist::SharingAnalysis sharing;
  mapping::PlaneAllocation planes;

  std::vector<Cluster> clusters;
  std::vector<std::size_t> slot_cluster;  ///< slot -> cluster.
  std::vector<std::size_t> slot_output;   ///< slot -> LB output index.

  place::Placement placement;
  route::RouteResult routing;
  sim::FabricProgram program;

  /// Complete fabric bitstream: every routing switch, every LUT bit,
  /// every control bit (the input to the Sec. 5 area comparison and the
  /// Table 1 statistics).
  config::Bitstream full_bitstream;

  std::vector<ContextStats> context_stats;
  /// Per-context STA snapshot from the Timing stage (arrival/required per
  /// timing node, slacks, critical path).
  std::vector<timing::TimingReport> timing_reports;
  /// One entry per closure-loop iteration (empty for one-shot compiles).
  std::vector<ClosureIterationStats> closure_stats;

  /// Per-stage wall-clock of the pipeline that produced this design.
  std::vector<StageTiming> stage_timings;

  /// Stage-cache / delta-recompile accounting (all-zero when the design
  /// was compiled without a cache).
  CacheStats cache;

  /// Primary I/O name -> placement terminal index.
  std::map<std::string, std::size_t> input_terminals;
  std::map<std::string, std::size_t> output_terminals;
};

/// Compiles `netlist` onto a fabric derived from `spec`.
/// Throws FlowError when the design cannot be mapped/placed/routed.
CompiledDesign compile(const netlist::MultiContextNetlist& netlist,
                       const arch::FabricSpec& spec,
                       const CompileOptions& options = {});

}  // namespace mcfpga::core
