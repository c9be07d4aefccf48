#include "cache/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "cache/key.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "config/context_id.hpp"
#include "core/closure.hpp"
#include "core/timing_build.hpp"
#include "route/router_core.hpp"

namespace mcfpga::cache {

namespace {

using Clock = std::chrono::steady_clock;

void push_timing(core::FlowContext& ctx, const char* name,
                 Clock::time_point start) {
  ctx.stage_timings.push_back(core::StageTiming{
      name, std::chrono::duration<double>(Clock::now() - start).count()});
}

/// The delta path's analogue of run_pipeline's observer protocol: check
/// the budget before a manual stage block, report its wall clock after.
void observe_start(core::StageObserver* observer, const char* stage) {
  if (observer != nullptr && !observer->on_stage_start(stage)) {
    throw FlowCancelled(std::string("compile abandoned before stage '") +
                        stage + "'");
  }
}

void observe_done(core::StageObserver* observer, const char* stage,
                  Clock::time_point start) {
  if (observer != nullptr) {
    observer->on_stage_done(
        stage, std::chrono::duration<double>(Clock::now() - start).count());
  }
}

/// Content hash of the effective placement problem: structure, weights,
/// and the criticalities the flow would anneal under.  Placement is a
/// pure function of (problem, grown fabric, placer options, seed), so
/// matching hashes — with the fabric and options separately verified —
/// let the delta path reuse the previous placement verbatim.
std::uint64_t hash_placement_problem(const core::PlacementBuild& build) {
  common::Hasher h;
  const place::PlacementProblem& p = build.problem;
  h.size(p.num_clusters).size(p.num_io_terminals).size(p.nets.size());
  for (const place::PlacementNet& net : p.nets) {
    h.u64(static_cast<std::uint64_t>(net.driver.kind))
        .size(net.driver.id)
        .size(net.weight)
        .f64(net.criticality)
        .size(net.sinks.size());
    for (const place::Terminal& t : net.sinks) {
      h.u64(static_cast<std::uint64_t>(t.kind)).size(t.id);
    }
  }
  return h.digest();
}

/// Builds the effective placement problem of a clustered context (the
/// same weighting PlaceStage would apply) and returns it with its hash.
std::pair<core::PlacementBuild, std::uint64_t> effective_placement_problem(
    core::FlowContext& ctx) {
  core::PlacementBuild build = core::build_placement_problem(ctx);
  if (ctx.options.placer.timing_mode) {
    core::apply_class_criticality(build,
                                  core::logic_depth_class_criticality(ctx));
  }
  const std::uint64_t hash = hash_placement_problem(build);
  return {std::move(build), hash};
}

/// Canonical "source|sorted sinks" identity of a physical net; empty when
/// the net has duplicate sinks (those never match, so they re-route).
std::string physical_net_key(arch::NodeId source,
                             std::vector<arch::NodeId> sinks) {
  std::sort(sinks.begin(), sinks.end());
  if (std::adjacent_find(sinks.begin(), sinks.end()) != sinks.end()) {
    return {};
  }
  std::string key = std::to_string(source);
  for (const arch::NodeId s : sinks) {
    key += '|';
    key += std::to_string(s);
  }
  return key;
}

bool is_wire(const arch::RoutingGraph& graph, arch::NodeId node) {
  return graph.node(node).kind == arch::NodeKind::kWire;
}

// --- incremental ProgramStage -----------------------------------------------

/// Whether cluster k's programming recipe is unchanged between the cached
/// compile and this one, WITHOUT rebuilding its LUT tables: position,
/// mode, slot membership, pin assignment, and every slot's plane entries
/// (fanin classes + truth table + plane set) must match.  Comparing the
/// recipe is O(slots * entries); rebuilding is O(2^inputs) per entry.
bool lb_recipe_unchanged(const core::FlowContext& ctx,
                         const core::CompiledDesign& prev, std::size_t k) {
  const core::Cluster& now = ctx.clusters[k];
  const core::Cluster& old = prev.clusters[k];
  if (ctx.placement.cluster_pos[k] != prev.placement.cluster_pos[k]) {
    return false;
  }
  if (now.mode != old.mode || now.slots != old.slots ||
      now.pin_signals != old.pin_signals) {
    return false;
  }
  for (const std::size_t s : now.slots) {
    if (s >= prev.slot_output.size() || s >= prev.planes.slots.size() ||
        ctx.slot_output[s] != prev.slot_output[s]) {
      return false;
    }
    const auto& a = ctx.planes.slots[s].entries;
    const auto& b = prev.planes.slots[s].entries;
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].planes != b[i].planes ||
          a[i].use.fanin_classes != b[i].use.fanin_classes ||
          !(a[i].use.truth_table == b[i].use.truth_table)) {
        return false;
      }
    }
  }
  return true;
}

struct ProgramDelta {
  std::size_t rows_reused = 0;
  std::size_t rows_reprogrammed = 0;
  bool full_reprogram = false;
};

/// ProgramStage with row-level reuse against the cached design.  The full
/// bitstream is positional — routing rows in SwitchId order, then each
/// LB's LUT + mode rows in cluster order — so a switch whose pattern
/// survived the edit, and a cluster whose recipe did, copy their cached
/// rows verbatim; only changed resources re-derive tables and re-emit
/// rows.  Produces a bitstream bit-identical to ProgramStage::run.  When
/// the cached row ledger cannot be aligned (never expected from this
/// pipeline's gates), falls back to a full reprogram and says so.
ProgramDelta run_program_incremental(core::FlowContext& ctx,
                                     const core::CompiledDesign& prev) {
  ProgramDelta out;
  const std::size_t n = ctx.spec.num_contexts;
  const config::Bitstream& pb = prev.full_bitstream;
  const std::size_t num_switches = ctx.routing.switch_patterns.size();

  const auto full_reprogram = [&]() {
    ctx.program = sim::FabricProgram{};
    core::ProgramStage().run(ctx);
    out = ProgramDelta{};
    out.rows_reprogrammed = ctx.full_bitstream.num_rows();
    out.full_reprogram = true;
    return out;
  };

  if (prev.program.lbs.size() != ctx.clusters.size() ||
      prev.routing.switch_patterns.size() != num_switches ||
      pb.num_contexts() != n || pb.num_rows() < num_switches) {
    return full_reprogram();
  }

  ctx.program.switch_patterns = ctx.routing.switch_patterns;
  config::Bitstream bs(n);
  // Routing rows, exactly as RouteResult::to_bitstream orders them.
  for (std::size_t s = 0; s < num_switches; ++s) {
    const config::BitstreamRow& row = pb.row(s);
    if (ctx.routing.switch_patterns[s] == prev.routing.switch_patterns[s]) {
      bs.add_row(row.name, row.kind, row.pattern);
      ++out.rows_reused;
    } else {
      bs.add_row(row.name, config::ResourceKind::kRoutingSwitch,
                 ctx.routing.switch_patterns[s]);
      ++out.rows_reprogrammed;
    }
  }

  // LB rows: walk the cached bitstream cluster by cluster (each cluster's
  // cached row count follows from its cached LbConfig), reusing the whole
  // row block when the recipe is untouched.
  std::size_t cursor = num_switches;
  for (std::size_t k = 0; k < ctx.clusters.size(); ++k) {
    const sim::LbConfig& cached = prev.program.lbs[k];
    std::size_t cached_rows = config::num_id_bits(n);
    for (const auto& o : cached.outputs) {
      if (o.used) {
        cached_rows += std::size_t{1} << cached.mode.inputs;
      }
    }
    if (cursor + cached_rows > pb.num_rows()) {
      return full_reprogram();
    }
    if (lb_recipe_unchanged(ctx, prev, k)) {
      for (std::size_t r = 0; r < cached_rows; ++r) {
        const config::BitstreamRow& row = pb.row(cursor + r);
        bs.add_row(row.name, row.kind, row.pattern);
      }
      out.rows_reused += cached_rows;
      ctx.program.lbs.push_back(cached);
    } else {
      sim::LbConfig cfg = core::build_lb_config(ctx, k);
      out.rows_reprogrammed += core::append_lb_rows(bs, cfg, n);
      ctx.program.lbs.push_back(std::move(cfg));
    }
    cursor += cached_rows;
  }
  if (cursor != pb.num_rows()) {
    return full_reprogram();
  }

  for (const auto& [name, term] : ctx.input_terminals) {
    ctx.program.input_pads[name] = ctx.placement.io_pads[term];
  }
  for (const auto& [name, term] : ctx.output_terminals) {
    ctx.program.output_pads[name] = ctx.placement.io_pads[term];
  }
  ctx.full_bitstream = std::move(bs);
  return out;
}

}  // namespace

NetlistDiff diff_netlists(const netlist::MultiContextNetlist& before,
                          const netlist::MultiContextNetlist& after) {
  NetlistDiff d;
  const std::size_t nc = std::max(before.num_contexts(), after.num_contexts());
  d.changed_per_context.assign(nc, 0);
  for (std::size_t c = 0; c < nc; ++c) {
    if (c >= before.num_contexts() || c >= after.num_contexts()) {
      const netlist::Dfg& only = c < before.num_contexts()
                                     ? before.context(c)
                                     : after.context(c);
      d.changed_per_context[c] = only.num_nodes();
      d.changed_nodes += only.num_nodes();
      d.total_nodes += only.num_nodes();
      continue;
    }
    const netlist::Dfg& a = before.context(c);
    const netlist::Dfg& b = after.context(c);
    const std::size_t common_nodes = std::min(a.num_nodes(), b.num_nodes());
    std::size_t changed = std::max(a.num_nodes(), b.num_nodes()) - common_nodes;
    for (std::size_t i = 0; i < common_nodes; ++i) {
      const netlist::DfgNode& x = a.node(static_cast<netlist::NodeRef>(i));
      const netlist::DfgNode& y = b.node(static_cast<netlist::NodeRef>(i));
      if (x.type != y.type || x.name != y.name || x.fanins != y.fanins ||
          x.truth_table != y.truth_table) {
        ++changed;
      }
    }
    const std::size_t common_outs =
        std::min(a.outputs().size(), b.outputs().size());
    changed += std::max(a.outputs().size(), b.outputs().size()) - common_outs;
    for (std::size_t i = 0; i < common_outs; ++i) {
      if (a.outputs()[i].node != b.outputs()[i].node ||
          a.outputs()[i].name != b.outputs()[i].name) {
        ++changed;
      }
    }
    d.changed_per_context[c] = changed;
    d.changed_nodes += changed;
    d.total_nodes += std::max(a.num_nodes(), b.num_nodes());
  }
  return d;
}

Compiled CompileService::compile(const netlist::MultiContextNetlist& netlist,
                                 const arch::FabricSpec& spec,
                                 const core::CompileOptions& options,
                                 core::StageObserver* observer) {
  core::FlowContext ctx = core::make_flow_context(netlist, spec, options);
  cache_.attach(ctx);
  ctx.observer = observer;
  core::run_pipeline(ctx, options.closure_iterations >= 2
                              ? core::closure_pipeline()
                              : core::default_pipeline());
  Compiled out;
  out.netlist = netlist;
  out.spec = spec;
  out.options = options;
  out.placement_problem_hash = effective_placement_problem(ctx).second;
  const std::size_t hits = ctx.cache_hits;
  const std::size_t misses = ctx.cache_misses;
  out.design = core::finalize_design(std::move(ctx));
  fill_cache_stats(out.design, hits, misses);
  return out;
}

Compiled CompileService::fallback(const Compiled& previous,
                                  const netlist::MultiContextNetlist& edited,
                                  const core::CompileOptions& options,
                                  const char* reason,
                                  core::StageObserver* observer) {
  // Counted before the compile so fill_cache_stats (inside it) already
  // sees this event in the breakdown it copies out.
  count_fallback(reason);
  Compiled full = compile(edited, previous.spec, options, observer);
  full.design.cache.delta_fallback = reason;
  return full;
}

void CompileService::count_fallback(const std::string& reason) {
  const std::lock_guard<std::mutex> lock(fallback_mu_);
  ++fallback_reasons_[reason];
}

std::map<std::string, std::size_t> CompileService::fallback_reasons() const {
  const std::lock_guard<std::mutex> lock(fallback_mu_);
  return fallback_reasons_;
}

Compiled CompileService::compile_incremental(
    const Compiled& previous, const netlist::MultiContextNetlist& edited,
    const core::CompileOptions& options, core::StageObserver* observer) {
  if (hash_compile_options(options) !=
      hash_compile_options(previous.options)) {
    return fallback(previous, edited, options, "compile options changed",
                    observer);
  }
  if (options.closure_iterations >= 2) {
    return fallback(previous, edited, options, "closure loop requested",
                    observer);
  }
  const NetlistDiff diff = diff_netlists(previous.netlist, edited);
  if (diff.changed_nodes == 0) {
    // Bit-for-bit the previous design: let the stage cache replay it.
    return compile(edited, previous.spec, options, observer);
  }
  if (diff.fraction() > options_.max_diff_fraction) {
    return fallback(previous, edited, options, "diff exceeds threshold",
                    observer);
  }
  if (options.router.cross_context_mode != route::CrossContextMode::kOff) {
    // An interleaved design keeps its delta path only when the edit stays
    // inside ONE context: the other contexts' trees then match verbatim
    // and the partial re-route cannot disturb the cross-context bargain
    // the waves struck.  An edit spanning contexts would silently drop
    // that bargain, so it takes the full pipeline instead.  The fallback
    // reason keeps its historical wording: perfbench's fallback counters
    // match it word for word.
    std::size_t touched_contexts = 0;
    for (const std::size_t changed : diff.changed_per_context) {
      touched_contexts += changed > 0 ? 1 : 0;
    }
    if (touched_contexts > 1) {
      return fallback(previous, edited, options,
                      "negotiated multi-context edit", observer);
    }
  }

  // --- front-end (cheap, cached): techmap / sharing / planes / cluster ----
  core::FlowContext ctx =
      core::make_flow_context(edited, previous.spec, options);
  cache_.attach(ctx);
  ctx.observer = observer;
  const auto& pipeline = core::default_pipeline();
  core::run_pipeline(
      ctx, std::vector<const core::Stage*>(pipeline.begin(),
                                           pipeline.begin() + 4));
  // The delta path's place/route outputs are NOT full-pipeline artifacts;
  // stop the hook so they are never published under full-compile keys.
  ctx.cache = nullptr;
  ctx.cache_key_valid = false;

  // --- compatibility gates: the previous physical world must still fit --
  observe_start(observer, "place");
  const Clock::time_point place_start = Clock::now();
  core::size_fabric_and_build_graph(ctx);
  if (ctx.spec.width != previous.design.fabric.width ||
      ctx.spec.height != previous.design.fabric.height) {
    return fallback(previous, edited, options, "fabric resized", observer);
  }
  if (ctx.clusters.size() != previous.design.placement.cluster_pos.size()) {
    return fallback(previous, edited, options, "cluster count changed",
                    observer);
  }
  if (ctx.num_terminals != previous.design.placement.io_pads.size()) {
    return fallback(previous, edited, options, "terminal count changed",
                    observer);
  }

  // --- placement: verbatim reuse or warm-start refine ---------------------
  auto [build, problem_hash] = effective_placement_problem(ctx);
  const std::size_t moves_per_sweep =
      options.placer.moves_per_sweep != 0
          ? options.placer.moves_per_sweep
          : 16 * (ctx.clusters.size() + ctx.num_terminals);
  const std::size_t cold_moves =
      options.placer.sweeps * moves_per_sweep *
      std::max<std::size_t>(1, options.placer.num_restarts);
  std::size_t moves_saved = 0;
  if (problem_hash == previous.placement_problem_hash) {
    ctx.placement = previous.design.placement;
    moves_saved = cold_moves;
  } else {
    place::PlacerOptions warm = options.placer;
    warm.seed = core::resolved_placer_seed(options);
    warm.initial_temperature_factor *= options_.warm_temperature_scale;
    warm.sweeps = std::max<std::size_t>(
        1, options.placer.sweeps / options_.warm_sweep_divisor);
    warm.num_restarts = 1;  // the warm start replaces restart diversity
    ctx.placement = place::place(build.problem, *ctx.graph, warm,
                                 &previous.design.placement);
    moves_saved = cold_moves - std::min(cold_moves,
                                        warm.sweeps * moves_per_sweep);
  }
  push_timing(ctx, "place", place_start);
  observe_done(observer, "place", place_start);

  // --- routing: keep matching trees, rip up and re-route the rest --------
  observe_start(observer, "route");
  const Clock::time_point route_start = Clock::now();
  core::FlowTiming ft = ctx.flow_timing ? std::move(*ctx.flow_timing)
                                        : core::build_flow_timing(ctx);
  ctx.flow_timing.reset();
  ctx.timing_specs = std::move(ft.specs);
  ctx.net_class = std::move(ft.net_class);
  ctx.sink_keys = std::move(ft.sink_keys);
  ctx.nets_per_context = core::build_route_nets(ctx);

  const arch::RoutingGraph& graph = *ctx.graph;
  const std::size_t n = ctx.spec.num_contexts;
  const std::size_t num_nodes = static_cast<std::size_t>(graph.num_nodes());

  // A net keeps its previous tree iff a previous net had exactly its
  // physical endpoints (source + sink set) — which also demands that the
  // placement of every touched cluster/pad is unchanged.
  struct ContextPlan {
    std::vector<std::ptrdiff_t> kept;  ///< New net -> previous index, -1.
    std::vector<std::size_t> invalid;  ///< New nets needing a route.
  };
  std::vector<ContextPlan> plans(n);
  std::size_t total_nets = 0;
  std::size_t total_invalidated = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const auto& prev_nets = previous.design.routing.nets[c];
    std::unordered_map<std::string, std::size_t> prev_by_key;
    prev_by_key.reserve(prev_nets.size());
    for (std::size_t j = 0; j < prev_nets.size(); ++j) {
      std::vector<arch::NodeId> sinks;
      sinks.reserve(prev_nets[j].paths.size());
      for (const route::RoutedPath& path : prev_nets[j].paths) {
        sinks.push_back(path.sink);
      }
      const std::string key =
          physical_net_key(prev_nets[j].source, std::move(sinks));
      if (!key.empty()) {
        prev_by_key.emplace(key, j);
      }
    }
    ContextPlan& plan = plans[c];
    const auto& nets = ctx.nets_per_context[c];
    plan.kept.assign(nets.size(), -1);
    total_nets += nets.size();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const std::string key = physical_net_key(nets[i].source, nets[i].sinks);
      const auto it = key.empty() ? prev_by_key.end() : prev_by_key.find(key);
      if (it != prev_by_key.end()) {
        plan.kept[i] = static_cast<std::ptrdiff_t>(it->second);
        prev_by_key.erase(it);  // one previous tree serves one new net
      } else {
        plan.invalid.push_back(i);
      }
    }
    total_invalidated += plan.invalid.size();
  }
  if (total_nets > 0 &&
      static_cast<double>(total_invalidated) >
          options_.max_invalidated_fraction *
              static_cast<double>(total_nets)) {
    return fallback(previous, edited, options, "too many nets invalidated",
                    observer);
  }

  // Single engine, contexts in order: deterministic regardless of any
  // worker-count option (and the re-route sets are small by construction).
  route::RouterCore router_core(graph, options.router);
  std::vector<route::RouterCore::ContextResult> results(n);
  std::vector<double> pressure;
  for (std::size_t c = 0; c < n; ++c) {
    const ContextPlan& plan = plans[c];
    const auto& nets = ctx.nets_per_context[c];
    const auto& prev_nets = previous.design.routing.nets[c];
    route::RouterCore::ContextResult& r = results[c];
    r.converged = true;
    r.nets.resize(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (plan.kept[i] < 0) {
        continue;
      }
      const route::RoutedNet& prev =
          prev_nets[static_cast<std::size_t>(plan.kept[i])];
      std::map<arch::NodeId, const route::RoutedPath*> by_sink;
      for (const route::RoutedPath& path : prev.paths) {
        by_sink.emplace(path.sink, &path);
      }
      route::RoutedNet out;
      out.name = nets[i].name;
      out.source = nets[i].source;
      out.paths.reserve(nets[i].sinks.size());
      // The previous paths follow the previous sink order; re-pair them
      // with the new sink order so paths stay parallel to the timing spec.
      for (const arch::NodeId sink : nets[i].sinks) {
        out.paths.push_back(*by_sink.at(sink));
      }
      r.nets[i] = std::move(out);
    }

    if (!plan.invalid.empty()) {
      pressure.assign(num_nodes, 0.0);
      for (std::size_t i = 0; i < nets.size(); ++i) {
        if (plan.kept[i] < 0) {
          continue;
        }
        for (const route::RoutedPath& path : r.nets[i].paths) {
          for (const arch::EdgeId e : path.edges) {
            const arch::RREdge& edge = graph.edge(e);
            if (is_wire(graph, edge.from)) {
              pressure[static_cast<std::size_t>(edge.from)] =
                  options_.keep_pressure;
            }
            if (is_wire(graph, edge.to)) {
              pressure[static_cast<std::size_t>(edge.to)] =
                  options_.keep_pressure;
            }
          }
        }
      }
      std::vector<route::RouteNet> sub_nets;
      sub_nets.reserve(plan.invalid.size());
      timing::ContextTimingSpec sub_spec;
      sub_spec.num_nodes = ctx.timing_specs[c].num_nodes;
      sub_spec.se_delay = ctx.timing_specs[c].se_delay;
      sub_spec.lut_delay = ctx.timing_specs[c].lut_delay;
      for (const std::size_t i : plan.invalid) {
        sub_nets.push_back(nets[i]);
        sub_spec.nets.push_back(ctx.timing_specs[c].nets[i]);
      }
      route::RouterCore::ContextResult pass = router_core.route_pass(
          sub_nets, options.router.timing_mode ? &sub_spec : nullptr,
          nullptr, &pressure);
      if (!pass.converged) {
        return fallback(previous, edited, options,
                        "delta route did not converge", observer);
      }
      r.iterations = pass.iterations;
      r.heap_pushes = pass.heap_pushes;
      r.heap_pops = pass.heap_pops;
      r.stale_pops = pass.stale_pops;
      r.nodes_expanded = pass.nodes_expanded;
      for (std::size_t k = 0; k < plan.invalid.size(); ++k) {
        r.nets[plan.invalid[k]] = std::move(pass.nets[k]);
      }
    }

    // Replicate RouterCore's commit accounting exactly, over kept and
    // re-routed trees alike, so summaries match a full route of the same
    // final trees.
    for (const route::RoutedNet& net : r.nets) {
      for (const route::RoutedPath& path : net.paths) {
        r.switches_crossed += path.switch_count();
        r.wire_nodes_used += path.edges.size();
      }
    }

    // Validity: within a context each wire node carries one net.  The
    // pressure makes a violation practically impossible, but a silent
    // short would corrupt the bitstream, so verify and fall back instead
    // of trusting the heuristic.
    std::vector<std::int32_t> owner(num_nodes, -1);
    for (std::size_t i = 0; i < r.nets.size(); ++i) {
      for (const route::RoutedPath& path : r.nets[i].paths) {
        for (const arch::EdgeId e : path.edges) {
          const arch::RREdge& edge = graph.edge(e);
          for (const arch::NodeId node : {edge.from, edge.to}) {
            if (!is_wire(graph, node)) {
              continue;
            }
            auto& slot = owner[static_cast<std::size_t>(node)];
            if (slot != -1 && slot != static_cast<std::int32_t>(i)) {
              return fallback(previous, edited, options,
                              "kept/re-routed wire overlap", observer);
            }
            slot = static_cast<std::int32_t>(i);
          }
        }
      }
    }
  }

  ctx.routing = route::merge_context_results(graph, std::move(results));
  MCFPGA_CHECK(ctx.routing.success, "delta merge lost convergence");
  push_timing(ctx, "route", route_start);
  observe_done(observer, "route", route_start);

  observe_start(observer, "timing");
  const Clock::time_point timing_start = Clock::now();
  core::TimingStage().run(ctx);
  for (std::size_t c = 0; c < n; ++c) {
    ctx.context_stats[c].nets_invalidated = plans[c].invalid.size();
    ctx.context_stats[c].nets_rerouted = plans[c].invalid.size();
  }
  push_timing(ctx, "timing", timing_start);
  observe_done(observer, "timing", timing_start);

  observe_start(observer, "program");
  const Clock::time_point program_start = Clock::now();
  const ProgramDelta program_delta =
      run_program_incremental(ctx, previous.design);
  push_timing(ctx, "program", program_start);
  observe_done(observer, "program", program_start);

  Compiled out;
  out.netlist = edited;
  out.spec = previous.spec;
  out.options = options;
  out.placement_problem_hash = problem_hash;
  const std::size_t hits = ctx.cache_hits;
  const std::size_t misses = ctx.cache_misses;
  out.design = core::finalize_design(std::move(ctx));
  fill_cache_stats(out.design, hits, misses);
  out.design.cache.delta = true;
  out.design.cache.nets_invalidated = total_invalidated;
  out.design.cache.nets_rerouted = total_invalidated;
  out.design.cache.anneal_moves_saved = moves_saved;
  out.design.cache.program_rows_reused = program_delta.rows_reused;
  out.design.cache.program_rows_reprogrammed =
      program_delta.rows_reprogrammed;
  if (program_delta.full_reprogram) {
    count_fallback("full reprogram: rows could not be aligned");
    out.design.cache.delta_fallback = "full reprogram: cached bitstream "
                                      "rows could not be aligned";
    out.design.cache.delta_fallback_counts = fallback_reasons();
  }
  return out;
}

void CompileService::fill_cache_stats(core::CompiledDesign& design,
                                      std::size_t hits,
                                      std::size_t misses) const {
  const FlowCache::Stats now = cache_.stats();
  design.cache.hits = hits;
  design.cache.misses = misses;
  design.cache.evictions = now.counters.evictions;
  design.cache.interned_patterns = now.live_patterns;
  design.cache.pattern_dedup_hits = now.pattern_dedup_hits;
  design.cache.delta_fallback_counts = fallback_reasons();
}

}  // namespace mcfpga::cache
