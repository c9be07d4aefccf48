// Timing-closure feedback loop: place -> route -> STA -> re-place.
//
// One-shot compilation estimates criticality before routing (logic depth)
// and never revisits placement once real switch counts exist.  The
// ClosureLoopStage closes that loop, VPR-style: iteration 1 runs the
// standard Place/Route/Timing stages verbatim, then every further
// iteration
//
//   1. exports post-route per-connection criticalities from the Timing
//      stage's reports (timing::connection_criticalities) and folds the
//      per-class worst into the placement nets — an exact-integer weight
//      rescale through place::effective_net_weight, so the incremental
//      annealer keeps bit-exact deltas;
//   2. re-anneals from the previous placement at reduced temperature
//      (place() warm start) with timing_mode forced on;
//   3. rebuilds the physical nets under the new placement
//      (build_route_nets) and re-routes with the router's congestion
//      history carried across iterations (route::RouteHistory) and
//      timing_mode forced on — under cross_context_mode == kInterleaved
//      the post-pass additionally receives per-context criticalities
//      from the PREVIOUS iteration's STA (the re-route runs before this
//      iteration's timing pass), each the context's critical path as a
//      fraction of the worst context's — i.e. 1 - slack/budget under the
//      shared budget — so the nets of the context with the least slack
//      pop first and push the strongest pressure;
//   4. re-runs the Timing stage and scores the iteration by worst slack
//      against the iteration-1 critical-path budget.
//
// Every iteration lands in FlowContext::closure_stats; the loop exits
// early when an iteration fails to improve the best worst slack by more
// than kClosureSlackTolerance (or when a refine re-route
// fails to converge), and the best-slack iteration's artifacts are
// restored at the end — closure never finishes worse than one-shot, and
// with closure_iterations == 1 the loop IS the plain three-stage block,
// bit for bit.
#pragma once

#include "core/stages.hpp"

namespace mcfpga::core {

/// Worst-slack improvement (SE delay units) a refine iteration must beat
/// for the loop to continue: 0 = while slack strictly improves.
inline constexpr double kClosureSlackTolerance = 0.0;

/// Drives the place -> route -> STA -> re-place loop over the context.
/// Requires ClusterStage's artifacts; fills everything PlaceStage,
/// RouteStage and TimingStage would, plus ctx.closure_stats.
class ClosureLoopStage : public Stage {
 public:
  const char* name() const override { return "closure"; }
  void run(FlowContext& ctx) const override;
};

/// The closure pipeline: TechMap/Sharing/PlaneAlloc/Cluster, then the
/// closure loop in place of Place/Route/Timing, then Program.  compile()
/// selects it when options.closure_iterations >= 2.
const std::vector<const Stage*>& closure_pipeline();

}  // namespace mcfpga::core
