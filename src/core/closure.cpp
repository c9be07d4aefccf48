#include "core/closure.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "route/router_core.hpp"
#include "timing/net_timing.hpp"

namespace mcfpga::core {

namespace {

/// Refine-anneal policy: the re-place perturbs the previous placement
/// rather than scrambling it, so the initial temperature shrinks and the
/// sweep budget halves relative to the user's annealing options.
constexpr double kRefineTemperatureScale = 0.02;
/// Decorrelates the refine iterations' RNG streams from each other and
/// from the first-iteration anneal (deterministic for a fixed flow seed).
constexpr std::uint64_t kRefineSeedStride = 1000003;

double worst_critical_path(const FlowContext& ctx) {
  double worst = 0.0;
  for (const auto& report : ctx.timing_reports) {
    worst = std::max(worst, report.critical_path);
  }
  return worst;
}

std::size_t total_wirelength(const FlowContext& ctx) {
  std::size_t wirelength = 0;
  for (const auto& summary : ctx.routing.context_summary) {
    wirelength += summary.wire_nodes_used;
  }
  return wirelength;
}

/// The artifacts a closure iteration may change.  The logical structure
/// (timing_specs, net_class, sink_keys) is placement-independent and
/// shared by every iteration, so it stays in the context untouched.
struct Snapshot {
  place::Placement placement;
  std::vector<std::vector<route::RouteNet>> nets;
  route::RouteResult routing;
  std::vector<timing::TimingReport> reports;
  std::vector<ContextStats> stats;
};

Snapshot capture(const FlowContext& ctx) {
  return Snapshot{ctx.placement, ctx.nets_per_context, ctx.routing,
                  ctx.timing_reports, ctx.context_stats};
}

void restore(FlowContext& ctx, Snapshot&& s) {
  ctx.placement = std::move(s.placement);
  ctx.nets_per_context = std::move(s.nets);
  ctx.routing = std::move(s.routing);
  ctx.timing_reports = std::move(s.reports);
  ctx.context_stats = std::move(s.stats);
}

/// Per-class worst post-route connection criticality of one closure
/// iteration: what the re-place folds into its net weights.
std::map<std::size_t, double> post_route_criticality(const FlowContext& ctx) {
  std::map<std::size_t, double> by_class;
  for (std::size_t c = 0; c < ctx.timing_specs.size(); ++c) {
    const timing::ContextTimingSpec& spec = ctx.timing_specs[c];
    std::vector<std::vector<std::size_t>> switches(spec.nets.size());
    for (std::size_t i = 0; i < spec.nets.size(); ++i) {
      const auto& paths = ctx.routing.nets[c][i].paths;
      switches[i].resize(paths.size());
      for (std::size_t j = 0; j < paths.size(); ++j) {
        switches[i][j] = paths[j].switch_count();
      }
    }
    const std::vector<std::vector<double>> crit =
        timing::connection_criticalities(spec, ctx.timing_reports[c],
                                         switches);
    for (std::size_t i = 0; i < crit.size(); ++i) {
      double worst = 0.0;
      for (const double value : crit[i]) {
        worst = std::max(worst, value);
      }
      auto [it, inserted] = by_class.emplace(ctx.net_class[c][i], worst);
      if (!inserted) {
        it->second = std::max(it->second, worst);
      }
    }
  }
  return by_class;
}

}  // namespace

void ClosureLoopStage::run(FlowContext& ctx) const {
  using clock = std::chrono::steady_clock;
  const std::size_t iterations = ctx.options.closure_iterations;

  const auto record = [&](std::size_t iter, double budget,
                          const clock::time_point& start) {
    ClosureIterationStats s;
    s.iteration = iter;
    s.critical_path = worst_critical_path(ctx);
    s.worst_slack = budget - s.critical_path;
    s.wirelength = total_wirelength(ctx);
    s.seconds = std::chrono::duration<double>(clock::now() - start).count();
    ctx.closure_stats.push_back(s);
    ctx.stage_timings.push_back(
        StageTiming{"closure.iter" + std::to_string(iter), s.seconds});
    return s;
  };

  // Iteration 1: exactly the one-shot Place/Route/Timing block, so a
  // single-iteration closure pipeline is bit-identical to the plain one.
  clock::time_point start = clock::now();
  PlaceStage().run(ctx);
  RouteStage().run(ctx);
  TimingStage().run(ctx);
  const double budget = worst_critical_path(ctx);
  record(1, budget, start);
  if (iterations == 1) {
    return;
  }

  Snapshot best = capture(ctx);
  double best_slack = 0.0;  // iteration 1 defines the budget: slack 0

  const std::uint64_t base_seed = resolved_placer_seed(ctx.options);

  // The placement problem depends only on the clustering; PlaceStage
  // cached it, so only the criticalities refresh per iteration.
  PlacementBuild build = ctx.placement_build
                             ? std::move(*ctx.placement_build)
                             : build_placement_problem(ctx);
  ctx.placement_build.reset();

  for (std::size_t iter = 2; iter <= iterations; ++iter) {
    start = clock::now();

    // Re-place: post-route criticalities become exact-integer weight
    // bumps (place::effective_net_weight), and the anneal perturbs the
    // previous placement at a reduced temperature with half the sweeps.
    apply_class_criticality(build, post_route_criticality(ctx));
    place::PlacerOptions placer_options = ctx.options.placer;
    placer_options.timing_mode = true;  // the loop exists to chase slack
    placer_options.seed = base_seed + kRefineSeedStride * (iter - 1);
    placer_options.initial_temperature_factor *= kRefineTemperatureScale;
    placer_options.sweeps = std::max<std::size_t>(1, placer_options.sweeps / 2);
    const place::Placement previous = std::move(ctx.placement);
    ctx.placement =
        place::place(build.problem, *ctx.graph, placer_options, &previous);

    // Re-route under the new placement: timing-driven, with the
    // congestion history of every earlier iteration carried in.  Under
    // interleaved cross-context routing the post-pass additionally gets
    // per-context criticalities from the PREVIOUS iteration's STA: each
    // context's critical path as a fraction of the worst context's
    // (equivalently 1 - slack/budget under the shared budget), so the
    // nets of the context with the least slack pop first and it exports
    // the strongest pressure.
    ctx.nets_per_context = build_route_nets(ctx);
    route::RouterOptions router_options = ctx.options.router;
    router_options.timing_mode = true;
    std::vector<double> context_crit;
    const std::vector<double>* context_crit_ptr = nullptr;
    if (router_options.cross_context_mode !=
        route::CrossContextMode::kOff) {
      const double worst = worst_critical_path(ctx);
      context_crit.resize(ctx.timing_reports.size());
      for (std::size_t c = 0; c < ctx.timing_reports.size(); ++c) {
        context_crit[c] =
            worst > 0.0 ? ctx.timing_reports[c].critical_path / worst : 1.0;
      }
      context_crit_ptr = &context_crit;
    }
    const route::Router router(*ctx.graph, router_options);
    if (!ctx.router_pool) {
      ctx.router_pool = std::make_shared<route::CorePool>();
    }
    ctx.routing =
        router.route(ctx.nets_per_context, &ctx.timing_specs,
                     &ctx.route_history, context_crit_ptr,
                     ctx.router_pool.get());
    if (!ctx.routing.success) {
      // A refine route that cannot converge is a failed experiment, not a
      // failed compile: keep the best iteration and stop.
      break;
    }
    TimingStage().run(ctx);
    const ClosureIterationStats s = record(iter, budget, start);

    const double improvement = s.worst_slack - best_slack;
    if (improvement > 0.0) {
      best = capture(ctx);
      best_slack = s.worst_slack;
    }
    if (improvement <= kClosureSlackTolerance) {
      break;
    }
  }

  // The best-slack iteration wins (ties toward the earliest), so closure
  // output is never worse than one-shot.
  restore(ctx, std::move(best));
}

const std::vector<const Stage*>& closure_pipeline() {
  static const TechMapStage tech_map;
  static const SharingStage sharing;
  static const PlaneAllocStage plane_alloc;
  static const ClusterStage cluster;
  static const ClosureLoopStage closure;
  static const ProgramStage program;
  static const std::vector<const Stage*> stages = {
      &tech_map, &sharing, &plane_alloc, &cluster, &closure, &program};
  return stages;
}

}  // namespace mcfpga::core
