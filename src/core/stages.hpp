// Explicit stages of the compile pipeline.
//
// Each stage is a stateless object that reads and extends a FlowContext —
// the single carrier of every intermediate artifact between the input
// netlist and the programmed fabric.  compile() simply runs
// default_pipeline() over a fresh context; tests, ablation benches, and
// future batch compilers can instead run stages individually, swap one
// out, or stop midway and inspect the artifacts.
//
// Stage order and contracts (each stage requires its predecessors ran):
//   TechMapStage    -> ctx.netlist
//   SharingStage    -> ctx.sharing, ctx.uses
//   PlaneAllocStage -> ctx.planes
//   ClusterStage    -> ctx.clusters, slot maps, I/O terminal tables
//   PlaceStage      -> ctx.spec (auto-grown), ctx.graph, ctx.placement,
//                      ctx.placement_problem_hash
//   RouteStage      -> ctx.nets_per_context, ctx.timing_specs,
//                      ctx.net_class, ctx.sink_keys, ctx.routing
//   TimingStage     -> ctx.timing_reports, ctx.context_stats
//   ProgramStage    -> ctx.program, ctx.full_bitstream
//
// Timing feeds back into optimization: PlaceStage weights nets by
// logic-depth criticality when options.placer.timing_mode is set, and
// RouteStage hands its timing specs to the router when
// options.router.timing_mode is set (criticality-driven PathFinder).
// With CompileOptions::closure_iterations >= 2 the Place/Route/Timing
// block is driven by the ClosureLoopStage (core/closure.hpp), which
// feeds POST-route criticalities back into re-placement and re-routing.
//
// run_pipeline() times every stage into ctx.stage_timings.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flow.hpp"

namespace mcfpga::core {

class GraphSlot;    // core/graph_slot.hpp
struct FlowTiming;  // core/timing_build.hpp

/// Logical sink of one routed connection, placement-independent: the
/// compile flow keeps these keys (alongside the driving classes) so a
/// closure-loop re-place can rebuild the physical RouteNet lists without
/// re-walking the clustered netlist.
struct SinkKey {
  enum class Kind : std::uint8_t { kPin, kPad };
  Kind kind = Kind::kPin;
  std::size_t cluster = 0;   ///< kPin: cluster index.
  std::size_t pin = 0;       ///< kPin: LB input pin.
  std::size_t terminal = 0;  ///< kPad: I/O terminal index.
};

/// Placement problem of a clustered flow, one net per driver class that
/// anything reads, in ascending class order; net_class[i] is the driving
/// class of problem.nets[i].  build_placement_problem() leaves every
/// criticality at zero, but a consumer must NOT assume they still are
/// (PlaceStage caches its build after folding logic-depth values in) —
/// always overwrite them via apply_class_criticality() before placing.
struct PlacementBuild {
  place::PlacementProblem problem;
  std::vector<std::size_t> net_class;
};

struct FlowContext;

/// Stage-boundary observer: progress streaming plus cooperative
/// cancellation / deadline budgets for long-running services
/// (serve/daemon).  run_pipeline() — and the delta-recompile driver's
/// manual stage blocks — consult it around every stage; returning false
/// from on_stage_start aborts the flow with FlowCancelled, which is the
/// ONLY way a compile stops early, so a job can never be killed halfway
/// through mutating shared state.
///
/// cache::CompileService::compile starts one step named "cache" before
/// its design-cache lookup.  A hit finishes it and is the compile's only
/// step; a miss abandons it without a done call (as a delta fallback
/// abandons its open block) and reports the pipeline's stages.
class StageObserver {
 public:
  virtual ~StageObserver() = default;
  /// Called before each stage runs.  Return false to abandon the flow
  /// (run_pipeline throws FlowCancelled).
  virtual bool on_stage_start(const char* stage) = 0;
  /// Called after each stage with its wall-clock seconds.
  virtual void on_stage_done(const char* stage, double seconds) = 0;
};

/// Carries all intermediate artifacts of one compilation.
struct FlowContext {
  // --- inputs -------------------------------------------------------------
  const netlist::MultiContextNetlist* input = nullptr;
  arch::FabricSpec spec;  ///< Mutated by PlaceStage when auto-sizing.
  CompileOptions options;

  // --- TechMapStage -------------------------------------------------------
  netlist::MultiContextNetlist netlist;  ///< Post tech-map.

  // --- SharingStage -------------------------------------------------------
  netlist::SharingAnalysis sharing;
  std::vector<mapping::ClassUse> uses;

  // --- PlaneAllocStage ----------------------------------------------------
  mapping::PlaneAllocation planes;

  // --- ClusterStage -------------------------------------------------------
  std::vector<Cluster> clusters;
  std::vector<std::size_t> slot_cluster;  ///< slot -> cluster.
  std::vector<std::size_t> slot_output;   ///< slot -> LB output index.
  /// Class id -> primary-input name, for input classes.
  std::unordered_map<std::size_t, std::string> input_class_name;
  /// Output name -> per-context driver class (SIZE_MAX = absent).
  std::map<std::string, std::vector<std::size_t>> output_driver;
  /// Input class -> I/O terminal index.
  std::unordered_map<std::size_t, std::size_t> input_class_terminal;
  std::map<std::string, std::size_t> input_terminals;
  std::map<std::string, std::size_t> output_terminals;
  std::size_t num_terminals = 0;

  // --- PlaceStage ---------------------------------------------------------
  /// Deterministic in the grown spec.  PlaceStage takes it from
  /// graph_slot when one is set and holds this spec's graph, and builds it
  /// otherwise (size_fabric_and_build_graph).  Read-only, so compiles that
  /// share one graph may read it concurrently.
  std::shared_ptr<const arch::RoutingGraph> graph;
  place::Placement placement;
  /// hash_placement_problem of the problem PlaceStage annealed (its first
  /// run, before any closure re-place): what a delta recompile compares
  /// to reuse the placement verbatim.
  std::uint64_t placement_problem_hash = 0;
  /// Logical connection structure cached by PlaceStage in timing mode (it
  /// is placement-independent); RouteStage consumes and clears it,
  /// building its own when absent.
  std::shared_ptr<FlowTiming> flow_timing;
  /// Placement problem cached by PlaceStage for the closure loop (it
  /// depends only on the clustering; net criticalities carry whatever
  /// PlaceStage last applied and must be overwritten per use).  The loop
  /// consumes and clears it, rebuilding when absent.
  std::shared_ptr<PlacementBuild> placement_build;

  // --- RouteStage ---------------------------------------------------------
  std::vector<std::vector<route::RouteNet>> nets_per_context;
  /// Per-context connection timing structure, parallel to
  /// nets_per_context (specs[c].nets[i].sinks[j] times connection (i, j)).
  std::vector<timing::ContextTimingSpec> timing_specs;
  /// net_class[c][i] = driving class of context c's net i — the logical
  /// net identity shared with the placement problem's nets.
  std::vector<std::vector<std::size_t>> net_class;
  /// sink_keys[c][i][j] = logical sink of connection (i, j); with the
  /// placement they regenerate nets_per_context (build_route_nets).
  std::vector<std::vector<std::vector<SinkKey>>> sink_keys;
  route::RouteResult routing;
  /// Cross-iteration PathFinder history (closure loop only; RouteStage
  /// threads it through the router when closure_iterations >= 2).
  route::RouteHistory route_history;
  /// Per-worker router engines (arena scratch + cached timing DAGs),
  /// created on first use by RouteStage and shared with the closure
  /// loop's re-routes so repeated routing reuses warm state.  Pooled and
  /// pool-free routing are bit-identical.
  std::shared_ptr<route::CorePool> router_pool;

  // --- TimingStage --------------------------------------------------------
  std::vector<timing::TimingReport> timing_reports;
  std::vector<ContextStats> context_stats;

  // --- ClosureLoopStage ---------------------------------------------------
  /// One entry per executed closure iteration (empty in one-shot flows).
  std::vector<ClosureIterationStats> closure_stats;

  // --- ProgramStage -------------------------------------------------------
  sim::FabricProgram program;
  config::Bitstream full_bitstream;

  // --- bookkeeping --------------------------------------------------------
  std::vector<StageTiming> stage_timings;
  /// Not owned; null = no progress/cancellation hooks (the default).
  StageObserver* observer = nullptr;
  /// Not owned; null = every compile builds its own graph (the default,
  /// as in core::compile).  cache::CompileService points it at the slot
  /// it keeps between compiles.
  GraphSlot* graph_slot = nullptr;
};

/// One pipeline stage.  Stages are stateless; all state lives in the
/// FlowContext, so one stage instance serves any number of compilations.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void run(FlowContext& ctx) const = 0;
};

class TechMapStage : public Stage {
 public:
  const char* name() const override { return "tech_map"; }
  void run(FlowContext& ctx) const override;
};

class SharingStage : public Stage {
 public:
  const char* name() const override { return "sharing"; }
  void run(FlowContext& ctx) const override;
};

class PlaneAllocStage : public Stage {
 public:
  const char* name() const override { return "plane_alloc"; }
  void run(FlowContext& ctx) const override;
};

class ClusterStage : public Stage {
 public:
  const char* name() const override { return "cluster"; }
  void run(FlowContext& ctx) const override;
};

class PlaceStage : public Stage {
 public:
  const char* name() const override { return "place"; }
  void run(FlowContext& ctx) const override;
};

class RouteStage : public Stage {
 public:
  const char* name() const override { return "route"; }
  void run(FlowContext& ctx) const override;
};

class TimingStage : public Stage {
 public:
  const char* name() const override { return "timing"; }
  void run(FlowContext& ctx) const override;
};

class ProgramStage : public Stage {
 public:
  const char* name() const override { return "program"; }
  void run(FlowContext& ctx) const override;
};

/// Builds the placement problem from a FlowContext that has run
/// ClusterStage (used by PlaceStage and by closure-loop re-placement).
PlacementBuild build_placement_problem(const FlowContext& ctx);

/// The problem PlaceStage anneals: build_placement_problem with, in placer
/// timing mode, the logic-depth criticalities folded in (which fills
/// ctx.flow_timing).  The delta-recompile driver builds the same problem
/// for its ECO placement.
PlacementBuild annealed_placement_problem(FlowContext& ctx);

/// Content hash of a placement problem: structure, weights and
/// criticalities.  Placement is a pure function of (problem, grown fabric,
/// placer options, seed), so equal hashes, with the fabric and options
/// checked separately, let a delta recompile reuse a placement verbatim.
std::uint64_t hash_placement_problem(const place::PlacementProblem& problem);

/// Overwrites every net's criticality from the per-class map (0 for
/// absent classes), so a PlacementBuild can be reused across closure
/// iterations.  Shared by PlaceStage (pre-route logic depth) and the
/// closure loop (post-route STA).
void apply_class_criticality(PlacementBuild& build,
                             const std::map<std::size_t, double>& by_class);

/// PlaceStage's fabric-sizing step, exposed for the delta-recompile
/// driver: auto-grows ctx.spec (square-ish) until clusters and I/O
/// terminals fit (options.auto_size), validates capacity (throws
/// FlowError otherwise), and sets ctx.graph to the grown spec's graph:
/// ctx.graph_slot's (GraphSlot::acquire) when the slot is set, else a
/// graph built for this context alone.
void size_fabric_and_build_graph(FlowContext& ctx);

/// The pre-route timing prior PlaceStage folds into net weights in placer
/// timing mode: per driver class, the worst unit-switch (logic depth) STA
/// criticality over its connections and contexts.  Fills ctx.flow_timing
/// as a side effect (it is placement-independent and RouteStage consumes
/// it).  Requires ClusterStage outputs.
std::map<std::size_t, double> logic_depth_class_criticality(FlowContext& ctx);

/// The annealing seed the flow hands the placer: options.placer.seed,
/// with the kSeedFromFlow sentinel resolved to the flow seed.  Shared by
/// PlaceStage and the closure loop so their seed derivations never drift.
std::uint64_t resolved_placer_seed(const CompileOptions& options);

/// Maps the logical nets (ctx.net_class / ctx.sink_keys, filled by
/// RouteStage) onto physical routing-graph nodes under ctx.placement —
/// the re-route half of a closure iteration.  Requires ctx.graph.
std::vector<std::vector<route::RouteNet>> build_route_nets(
    const FlowContext& ctx);

/// One cluster's LUT programming — ProgramStage's per-LB step, exposed so
/// the delta-recompile driver can regenerate only the clusters an edit
/// touched.  Requires ClusterStage + PlaceStage outputs.
sim::LbConfig build_lb_config(const FlowContext& ctx, std::size_t k);

/// Appends one programmed LB's bitstream rows (every used output's LUT
/// bits, then the mode/control bits) exactly as ProgramStage emits them.
/// Returns the number of rows appended.
std::size_t append_lb_rows(config::Bitstream& bitstream,
                           const sim::LbConfig& lb, std::size_t num_contexts);

/// Seeds a context from the flow inputs (validates both, plus the
/// closure and delay options; InvalidArgument on a bad value).
FlowContext make_flow_context(const netlist::MultiContextNetlist& netlist,
                              const arch::FabricSpec& spec,
                              const CompileOptions& options);

/// The standard eight-stage sequence, as static instances.
const std::vector<const Stage*>& default_pipeline();

/// Runs `stages` over `ctx` in order, appending one StageTiming each and
/// reporting each stage to ctx.observer.
void run_pipeline(FlowContext& ctx, const std::vector<const Stage*>& stages);

/// Moves the finished artifacts out of `ctx` into a CompiledDesign.
CompiledDesign finalize_design(FlowContext&& ctx);

}  // namespace mcfpga::core
