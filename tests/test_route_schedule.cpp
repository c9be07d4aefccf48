// Tests for the interleaved cross-context post-pass (route/schedule.hpp)
// and the surrounding plumbing: off-mode stays bit-identical to routing
// every context through a RouterCore by hand, interleaved mode is
// deterministic for any worker count, never makes the kept metric worse
// than independent routing (gated property over random multi-context
// workloads) and seeds its sessions from the baseline's history whether
// or not the caller keeps one, stale RouteHistory entries are clamped
// instead of silently seeding, and the wave/conflict counters are
// consistent end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/closure.hpp"
#include "core/flow.hpp"
#include "core/stages.hpp"
#include "route/router.hpp"
#include "route/router_core.hpp"
#include "route/schedule.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

namespace mcfpga::core {
namespace {

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

netlist::MultiContextNetlist random_workload(std::uint64_t seed) {
  workload::RandomMultiContextParams params;
  params.base.num_inputs = 6;
  params.base.num_nodes = 16;
  params.base.max_arity = 3;
  params.base.seed = seed;
  params.share_fraction = 0.4;
  return workload::random_multi_context(params);
}

/// Runs the pipeline through RouteStage and hands the context back — the
/// routing problem (graph, nets, specs) plus the routed result.
FlowContext routed_context(const netlist::MultiContextNetlist& nl,
                           const CompileOptions& options) {
  FlowContext ctx = make_flow_context(nl, small_spec(), options);
  TechMapStage().run(ctx);
  SharingStage().run(ctx);
  PlaneAllocStage().run(ctx);
  ClusterStage().run(ctx);
  PlaceStage().run(ctx);
  RouteStage().run(ctx);
  return ctx;
}

void expect_same_routing(const route::RouteResult& a,
                         const route::RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t c = 0; c < a.nets.size(); ++c) {
    ASSERT_EQ(a.nets[c].size(), b.nets[c].size()) << "context " << c;
    for (std::size_t i = 0; i < a.nets[c].size(); ++i) {
      const auto& na = a.nets[c][i];
      const auto& nb = b.nets[c][i];
      EXPECT_EQ(na.source, nb.source);
      ASSERT_EQ(na.paths.size(), nb.paths.size());
      for (std::size_t p = 0; p < na.paths.size(); ++p) {
        EXPECT_EQ(na.paths[p].sink, nb.paths[p].sink);
        EXPECT_EQ(na.paths[p].edges, nb.paths[p].edges);
      }
    }
  }
  ASSERT_EQ(a.switch_patterns.size(), b.switch_patterns.size());
  for (std::size_t s = 0; s < a.switch_patterns.size(); ++s) {
    EXPECT_EQ(a.switch_patterns[s], b.switch_patterns[s]) << "switch " << s;
  }
}

std::size_t worst_critical_switches(const route::RouteResult& r) {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < r.nets.size(); ++c) {
    worst = std::max(worst, r.critical_switches(c));
  }
  return worst;
}

std::size_t total_conflicts(const route::RouteResult& r) {
  std::size_t total = 0;
  for (const auto& s : r.context_summary) {
    total += s.cross_context_conflicts;
  }
  return total;
}

double worst_critical_path(const CompiledDesign& d) {
  double worst = 0.0;
  for (const auto& s : d.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

TEST(RouteSchedule, OffModeMatchesManualPerContextCores) {
  // The route_pass refactor must leave the independent path untouched:
  // Router::route in kOff mode is bit-identical to driving one
  // RouterCore over every context by hand (the historical monolith).
  FlowContext ctx =
      routed_context(workload::pipeline_workload(4, 8), CompileOptions{});
  ASSERT_TRUE(ctx.routing.success);

  route::RouterCore core(*ctx.graph, ctx.options.router);
  for (std::size_t c = 0; c < ctx.nets_per_context.size(); ++c) {
    const auto manual =
        core.route_pass(ctx.nets_per_context[c], nullptr, nullptr);
    ASSERT_TRUE(manual.converged);
    ASSERT_EQ(manual.nets.size(), ctx.routing.nets[c].size());
    for (std::size_t i = 0; i < manual.nets.size(); ++i) {
      ASSERT_EQ(manual.nets[i].paths.size(),
                ctx.routing.nets[c][i].paths.size());
      for (std::size_t p = 0; p < manual.nets[i].paths.size(); ++p) {
        EXPECT_EQ(manual.nets[i].paths[p].edges,
                  ctx.routing.nets[c][i].paths[p].edges);
      }
    }
  }
  // Off mode reports no cross-context entries but still counts conflicts.
  EXPECT_TRUE(ctx.routing.negotiation_stats.empty());
  EXPECT_GT(total_conflicts(ctx.routing), 0u);
}

TEST(RouteSchedule, ZeroPressurePassIsBitIdenticalToPlainPass) {
  // An explicit all-zero pressure vector must not perturb a single cost:
  // a pressured pass without pressure really IS independent routing.
  FlowContext ctx =
      routed_context(workload::pipeline_workload(4, 8), CompileOptions{});
  const std::vector<double> zero(ctx.graph->num_nodes(), 0.0);
  route::RouterCore plain(*ctx.graph, ctx.options.router);
  route::RouterCore pressured(*ctx.graph, ctx.options.router);
  for (std::size_t c = 0; c < ctx.nets_per_context.size(); ++c) {
    const auto a = plain.route_pass(ctx.nets_per_context[c], nullptr, nullptr);
    const auto b = pressured.route_pass(ctx.nets_per_context[c], nullptr,
                                        nullptr, &zero);
    ASSERT_EQ(a.nets.size(), b.nets.size());
    for (std::size_t i = 0; i < a.nets.size(); ++i) {
      ASSERT_EQ(a.nets[i].paths.size(), b.nets[i].paths.size());
      for (std::size_t p = 0; p < a.nets[i].paths.size(); ++p) {
        EXPECT_EQ(a.nets[i].paths[p].edges, b.nets[i].paths[p].edges);
      }
    }
  }
}

TEST(RouteSchedule, ContextCriticalitiesKeepTheNeverWorseGuarantee) {
  // Explicit per-context criticalities reorder the merged queue and scale
  // the exported pressure; either priority, even an inverted one, must
  // keep the never-worse guarantee over the independent baseline on the
  // kept metric.
  FlowContext ctx =
      routed_context(workload::pipeline_workload(4, 8), CompileOptions{});
  route::RouterOptions on = ctx.options.router;
  on.cross_context_mode = route::CrossContextMode::kInterleaved;
  const route::Router router(*ctx.graph, on);
  const std::size_t n = ctx.nets_per_context.size();
  for (const bool inverted : {false, true}) {
    std::vector<double> crit(n);
    for (std::size_t c = 0; c < n; ++c) {
      const double rank =
          static_cast<double>(c + 1) / static_cast<double>(n);
      crit[c] = inverted ? 1.0 - rank + 1.0 / static_cast<double>(n) : rank;
    }
    const route::RouteResult interleaved =
        router.route(ctx.nets_per_context, nullptr, nullptr, &crit);
    ASSERT_TRUE(interleaved.success);
    EXPECT_LE(worst_critical_switches(interleaved),
              worst_critical_switches(ctx.routing));
  }
  // Wrong-sized criticality vectors are rejected.
  std::vector<double> bad(n + 1, 1.0);
  EXPECT_THROW(router.route(ctx.nets_per_context, nullptr, nullptr, &bad),
               InvalidArgument);
}

TEST(RouteSchedule, HistoryClampedWhenNodeCountChanges) {
  // A history recorded on a different graph (wrong per-node length) must
  // be cleared on entry, not silently seeded from: routing with a
  // garbage stale history equals routing with a fresh one, and the
  // prepared entries come back graph-sized.
  FlowContext ctx =
      routed_context(workload::pipeline_workload(4, 8), CompileOptions{});
  const route::Router router(*ctx.graph, ctx.options.router);
  const std::size_t num_nodes = ctx.graph->num_nodes();
  const std::size_t num_contexts = ctx.nets_per_context.size();

  route::RouteHistory fresh;
  const route::RouteResult a =
      router.route(ctx.nets_per_context, nullptr, &fresh);

  route::RouteHistory stale;
  stale.per_context.assign(num_contexts,
                           std::vector<double>(num_nodes + 7, 1e6));
  const route::RouteResult b =
      router.route(ctx.nets_per_context, nullptr, &stale);
  expect_same_routing(a, b);
  ASSERT_EQ(stale.per_context.size(), num_contexts);
  for (const auto& h : stale.per_context) {
    EXPECT_EQ(h.size(), num_nodes);
  }

  // prepare() itself: matching entries survive, stale ones clear.
  route::RouteHistory h;
  h.per_context.push_back(std::vector<double>(num_nodes, 2.0));
  h.per_context.push_back(std::vector<double>(3, 2.0));
  h.prepare(4, num_nodes);
  ASSERT_EQ(h.per_context.size(), 4u);
  EXPECT_EQ(h.per_context[0].size(), num_nodes);  // kept
  EXPECT_TRUE(h.per_context[1].empty());          // clamped
  EXPECT_TRUE(h.per_context[2].empty());
}

TEST(RouteSchedule, ClosureLoopWithInterleavedRoutingIsDeterministic) {
  // The closure loop hands the previous iteration's per-context
  // criticalities to the post-pass; the combination must stay
  // deterministic across worker counts and never finish worse than the
  // interleaved one-shot flow.
  const auto nl = workload::pipeline_workload(4, 8);
  CompileOptions base;
  base.placer.timing_mode = true;
  base.router.timing_mode = true;
  base.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  base.closure_iterations = 3;
  base.router.num_threads = 1;
  const CompiledDesign reference = compile(nl, small_spec(), base);

  CompileOptions one_shot = base;
  one_shot.closure_iterations = 1;
  const CompiledDesign single = compile(nl, small_spec(), one_shot);
  EXPECT_LE(worst_critical_path(reference),
            worst_critical_path(single) + 1e-9);

  CompileOptions threaded = base;
  threaded.router.num_threads = 4;
  const CompiledDesign d = compile(nl, small_spec(), threaded);
  expect_same_routing(reference.routing, d.routing);
  EXPECT_EQ(worst_critical_path(reference), worst_critical_path(d));
}

// --- Net-interleaved scheduling (CrossContextMode::kInterleaved) ---------

TEST(RouteSchedule, InterleavedDeterministicAcrossWorkerCounts) {
  // The merged worklist drains one net at a time in pop order, and the
  // calendar queue's pops are a pure function of its pushes, so any
  // worker count (which only parallelizes the independent baseline) must
  // yield bit-identical routing and byte-equal per-wave trajectories —
  // work counters included — over random workloads in both timing modes.
  struct Case {
    const char* name;
    netlist::MultiContextNetlist nl;
  };
  const std::vector<Case> cases = {
      {"pipeline(4,8)", workload::pipeline_workload(4, 8)},
      {"random 11", random_workload(11)},
      {"random 47", random_workload(47)},
  };
  for (const Case& wl : cases) {
    for (const bool timed : {false, true}) {
      SCOPED_TRACE(std::string(wl.name) + (timed ? " timed" : " untimed"));
      CompileOptions base;
      base.placer.timing_mode = timed;
      base.router.timing_mode = timed;
      base.router.cross_context_mode = route::CrossContextMode::kInterleaved;
      base.router.num_threads = 1;
      FlowContext reference = routed_context(wl.nl, base);
      const auto& ref_stats = reference.routing.negotiation_stats;
      // Baseline round plus at least one wave actually ran.
      ASSERT_GE(ref_stats.size(), 2u);

      for (const std::size_t threads : {2u, 4u, 8u}) {
        CompileOptions options = base;
        options.router.num_threads = threads;
        FlowContext ctx = routed_context(wl.nl, options);
        expect_same_routing(reference.routing, ctx.routing);
        const auto& stats = ctx.routing.negotiation_stats;
        ASSERT_EQ(stats.size(), ref_stats.size()) << "threads " << threads;
        for (std::size_t r = 0; r < stats.size(); ++r) {
          const auto& a = ref_stats[r];
          const auto& b = stats[r];
          SCOPED_TRACE("threads " + std::to_string(threads) + " entry " +
                       std::to_string(r));
          EXPECT_EQ(a.round, b.round);
          EXPECT_EQ(a.conflicts, b.conflicts);
          EXPECT_EQ(a.worst_critical_switches, b.worst_critical_switches);
          EXPECT_EQ(a.worst_critical_path, b.worst_critical_path);
          EXPECT_EQ(a.heap_pushes, b.heap_pushes);
          EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
          EXPECT_EQ(a.nets_rerouted, b.nets_rerouted);
          EXPECT_EQ(a.nets_requeued, b.nets_requeued);
          EXPECT_EQ(a.kept, b.kept);
        }
      }
    }
  }
}

TEST(RouteSchedule, InterleavedNeverWorseCriticalSwitchesWithoutSpecs) {
  // Gated property, switch-count metric: keep-best over the baseline plus
  // every wave guarantees interleaved scheduling never increases the
  // worst per-connection switch count over independent routing.
  for (const std::uint64_t seed : {11u, 29u, 47u, 63u}) {
    FlowContext ctx = routed_context(random_workload(seed), CompileOptions{});
    route::RouterOptions on = ctx.options.router;
    on.cross_context_mode = route::CrossContextMode::kInterleaved;
    const route::Router router(*ctx.graph, on);
    const route::RouteResult interleaved = router.route(ctx.nets_per_context);
    ASSERT_TRUE(interleaved.success) << "seed " << seed;
    EXPECT_LE(worst_critical_switches(interleaved),
              worst_critical_switches(ctx.routing))
        << "seed " << seed;
  }
}

TEST(RouteSchedule, InterleavedNeverWorseCriticalPathOnRandomWorkloads) {
  // Gated property, STA metric: through the whole compile flow the
  // interleaved worst context critical path never exceeds independent
  // routing's (placement is identical across modes).
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    const auto nl = random_workload(seed);
    CompileOptions off;
    off.placer.timing_mode = true;
    off.router.timing_mode = true;
    CompileOptions on = off;
    on.router.cross_context_mode = route::CrossContextMode::kInterleaved;
    const CompiledDesign d_off = compile(nl, small_spec(), off);
    const CompiledDesign d_on = compile(nl, small_spec(), on);
    EXPECT_LE(worst_critical_path(d_on), worst_critical_path(d_off) + 1e-9)
        << "seed " << seed;
  }
}

TEST(RouteSchedule, InterleavedWaveCountersAreConsistent) {
  // Exactly one recorded entry (baseline or wave) is kept and its
  // conflict count matches the returned summaries, which ContextStats
  // mirror; every entry of a timed route carries an STA score; the
  // dirty-set invariant holds (wave k can only re-route nets wave k-1
  // re-enqueued); and the per-context churn counters mirror the per-wave
  // totals.
  const auto nl = workload::pipeline_workload(4, 8);
  CompileOptions on;
  on.placer.timing_mode = true;
  on.router.timing_mode = true;
  on.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  const CompiledDesign d = compile(nl, small_spec(), on);

  const auto& stats = d.routing.negotiation_stats;
  ASSERT_GE(stats.size(), 2u);  // the baseline plus at least one wave
  std::size_t kept = 0;
  const route::NegotiationRoundStats* kept_entry = nullptr;
  for (const auto& s : stats) {
    if (s.kept) {
      ++kept;
      kept_entry = &s;
    }
  }
  ASSERT_EQ(kept, 1u);
  EXPECT_EQ(kept_entry->conflicts, total_conflicts(d.routing));
  // ContextStats mirror the routing summaries.
  std::size_t from_stats = 0;
  for (const auto& s : d.context_stats) {
    from_stats += s.cross_context_conflicts;
  }
  EXPECT_EQ(from_stats, total_conflicts(d.routing));
  // The flow routed with timing specs, so every entry carries STA scores.
  for (const auto& s : stats) {
    EXPECT_GT(s.worst_critical_path, 0.0);
    EXPECT_GT(s.worst_critical_switches, 0u);
  }

  // The independent baseline does no interleaved work.
  EXPECT_EQ(stats[0].nets_rerouted, 0u);
  EXPECT_EQ(stats[0].nets_requeued, 0u);
  // Wave 1 seeds from the contested nets; every later wave's worklist is
  // exactly the previous wave's dirty set, so its re-routes are bounded
  // by the previous wave's requeues.
  EXPECT_GT(stats[1].nets_rerouted, 0u);
  for (std::size_t r = 2; r < stats.size(); ++r) {
    EXPECT_LE(stats[r].nets_rerouted, stats[r - 1].nets_requeued)
        << "wave entry " << r;
  }

  std::size_t wave_rerouted = 0;
  std::size_t wave_requeued = 0;
  for (const auto& s : stats) {
    wave_rerouted += s.nets_rerouted;
    wave_requeued += s.nets_requeued;
  }
  std::size_t ctx_rerouted = 0;
  std::size_t ctx_requeued = 0;
  for (const auto& s : d.context_stats) {
    ctx_rerouted += s.interleave_reroutes;
    ctx_requeued += s.interleave_requeues;
  }
  EXPECT_EQ(ctx_rerouted, wave_rerouted);
  EXPECT_EQ(ctx_requeued, wave_requeued);
}

TEST(RouteSchedule, InterleavedSeedsSessionsFromBaselineHistory) {
  // The sessions price wires with the baseline's final PathFinder history
  // whether or not the caller keeps a RouteHistory (RouteStage passes
  // none for one-shot compiles), so routing without one equals routing
  // with a fresh one.  The post-pass never writes history: what comes
  // back is exactly what independent routing writes back.  Timed random
  // workloads are the case where a zero-history seed re-routes
  // differently.
  for (const std::uint64_t seed : {11u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CompileOptions timed;
    timed.placer.timing_mode = true;
    timed.router.timing_mode = true;
    FlowContext ctx = routed_context(random_workload(seed), timed);
    route::RouterOptions on = ctx.options.router;
    on.cross_context_mode = route::CrossContextMode::kInterleaved;
    const route::Router interleaved(*ctx.graph, on);

    const route::RouteResult without =
        interleaved.route(ctx.nets_per_context, &ctx.timing_specs);
    ASSERT_GE(without.negotiation_stats.size(), 2u);  // waves actually ran
    route::RouteHistory fresh;
    const route::RouteResult with =
        interleaved.route(ctx.nets_per_context, &ctx.timing_specs, &fresh);
    expect_same_routing(without, with);

    route::RouteHistory independent;
    const route::Router off(*ctx.graph, ctx.options.router);
    off.route(ctx.nets_per_context, &ctx.timing_specs, &independent);
    ASSERT_EQ(fresh.per_context.size(), independent.per_context.size());
    for (std::size_t c = 0; c < fresh.per_context.size(); ++c) {
      EXPECT_EQ(fresh.per_context[c], independent.per_context[c])
          << "context " << c;
    }
  }
}

}  // namespace
}  // namespace mcfpga::core
