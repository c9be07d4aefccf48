#include "core/stages.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "config/context_id.hpp"
#include "core/graph_slot.hpp"
#include "core/timing_build.hpp"
#include "route/router_core.hpp"
#include "mapping/context_merge.hpp"
#include "mapping/tech_map.hpp"
#include "timing/net_timing.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::core {

namespace {

using mapping::ClassUse;

/// Union-append `extra` into `pins`, preserving first-seen order.
void merge_pins(std::vector<std::size_t>& pins,
                const std::vector<std::size_t>& extra) {
  for (const std::size_t p : extra) {
    if (std::find(pins.begin(), pins.end(), p) == pins.end()) {
      pins.push_back(p);
    }
  }
}

std::size_t pin_of(const Cluster& cluster, std::size_t cls) {
  const auto it =
      std::find(cluster.pin_signals.begin(), cluster.pin_signals.end(), cls);
  MCFPGA_CHECK(it != cluster.pin_signals.end(),
               "signal not present on cluster pins");
  return static_cast<std::size_t>(it - cluster.pin_signals.begin());
}

/// Pads attached at each perimeter cell (matching RoutingGraph::build_pads).
std::size_t pads_available(const arch::FabricSpec& s) {
  const std::size_t perimeter = s.width <= 1 || s.height <= 1
                                    ? s.num_cells()
                                    : 2 * s.width + 2 * s.height - 4;
  return 2 * perimeter;
}

}  // namespace

// --- TechMapStage ------------------------------------------------------------

void TechMapStage::run(FlowContext& ctx) const {
  MCFPGA_REQUIRE(ctx.input != nullptr, "flow context has no input netlist");
  const std::size_t max_inputs =
      ctx.spec.logic_block.base_inputs +
      config::num_id_bits(ctx.spec.num_contexts);
  ctx.netlist = mapping::decompose_to_arity(*ctx.input, max_inputs);
}

// --- SharingStage ------------------------------------------------------------

void SharingStage::run(FlowContext& ctx) const {
  ctx.sharing = netlist::analyze_sharing(ctx.netlist);
  ctx.uses = mapping::lut_class_uses(ctx.netlist, ctx.sharing);
}

// --- PlaneAllocStage ---------------------------------------------------------

void PlaneAllocStage::run(FlowContext& ctx) const {
  ctx.planes = mapping::allocate_planes(
      ctx.uses, ctx.spec.logic_block.base_inputs, ctx.spec.num_contexts,
      ctx.spec.logic_block.control);
}

// --- ClusterStage ------------------------------------------------------------

void ClusterStage::run(FlowContext& ctx) const {
  const std::size_t n = ctx.spec.num_contexts;

  // Slots sharing a logic block share its input pins, so (a) the union of
  // their fanin signals must fit the mode's inputs and (b) no slot may feed
  // another slot in the same block — the block evaluates only when ALL its
  // pins are resolved, so an intra-block dependency would deadlock it.
  ctx.slot_cluster.assign(ctx.planes.slots.size(), SIZE_MAX);
  ctx.slot_output.assign(ctx.planes.slots.size(), SIZE_MAX);
  std::vector<std::vector<std::size_t>> cluster_produces;
  const auto slot_produces = [&](std::size_t s) {
    std::vector<std::size_t> out;
    for (const auto& e : ctx.planes.slots[s].entries) {
      out.push_back(e.use.cls);
    }
    return out;
  };
  for (std::size_t s = 0; s < ctx.planes.slots.size(); ++s) {
    const auto& slot = ctx.planes.slots[s];
    std::vector<std::size_t> pins;
    for (const auto& e : slot.entries) {
      merge_pins(pins, e.use.fanin_classes);
    }
    MCFPGA_CHECK(pins.size() <= slot.mode.inputs,
                 "slot fanin exceeds its mode inputs");
    const std::vector<std::size_t> produces = slot_produces(s);
    bool placed = false;
    for (std::size_t k = 0; k < ctx.clusters.size() && !placed; ++k) {
      Cluster& cl = ctx.clusters[k];
      if (cl.mode != slot.mode ||
          cl.slots.size() >= ctx.spec.logic_block.num_outputs) {
        continue;
      }
      std::vector<std::size_t> merged = cl.pin_signals;
      merge_pins(merged, pins);
      if (merged.size() > cl.mode.inputs) {
        continue;
      }
      // Reject intra-block dependencies in either direction.
      bool dependent = false;
      for (const std::size_t p : merged) {
        if (std::find(produces.begin(), produces.end(), p) !=
                produces.end() ||
            std::find(cluster_produces[k].begin(), cluster_produces[k].end(),
                      p) != cluster_produces[k].end()) {
          dependent = true;
          break;
        }
      }
      if (dependent) {
        continue;
      }
      ctx.slot_cluster[s] = k;
      ctx.slot_output[s] = cl.slots.size();
      cl.slots.push_back(s);
      cl.pin_signals = std::move(merged);
      cluster_produces[k].insert(cluster_produces[k].end(), produces.begin(),
                                 produces.end());
      placed = true;
    }
    if (!placed) {
      Cluster cl;
      cl.mode = slot.mode;
      cl.slots.push_back(s);
      cl.pin_signals = pins;
      ctx.slot_cluster[s] = ctx.clusters.size();
      ctx.slot_output[s] = 0;
      ctx.clusters.push_back(std::move(cl));
      cluster_produces.push_back(produces);
    }
  }

  // I/O terminal discovery: class id -> primary-input name.
  for (const auto& cls : ctx.sharing.classes) {
    if (cls.arity == 0 && !cls.members.empty()) {
      const auto& [c, node] = cls.members.front();
      ctx.input_class_name.emplace(cls.id,
                                   ctx.netlist.context(c).node(node).name);
    }
  }
  // Output name -> per-context driver class.
  for (const std::string& name : ctx.netlist.all_output_names()) {
    ctx.output_driver.emplace(name, std::vector<std::size_t>(n, SIZE_MAX));
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (const auto& out : ctx.netlist.context(c).outputs()) {
      ctx.output_driver[out.name][c] =
          ctx.sharing.class_of[c][static_cast<std::size_t>(out.node)];
    }
  }
  // Input classes that must reach the fabric: logic fanins + direct PO taps.
  std::unordered_set<std::size_t> needed_inputs;
  for (const auto& cl : ctx.clusters) {
    for (const std::size_t sig : cl.pin_signals) {
      if (ctx.input_class_name.count(sig) != 0) {
        needed_inputs.insert(sig);
      }
    }
  }
  for (const auto& [name, drivers] : ctx.output_driver) {
    for (const std::size_t cls : drivers) {
      if (cls != SIZE_MAX && ctx.input_class_name.count(cls) != 0) {
        needed_inputs.insert(cls);
      }
    }
  }

  // Terminal numbering: inputs (sorted by name for determinism), then
  // outputs (sorted by name).
  std::vector<std::pair<std::string, std::size_t>> input_list;
  for (const std::size_t cls : needed_inputs) {
    input_list.emplace_back(ctx.input_class_name.at(cls), cls);
  }
  std::sort(input_list.begin(), input_list.end());
  for (std::size_t i = 0; i < input_list.size(); ++i) {
    ctx.input_terminals[input_list[i].first] = i;
    ctx.input_class_terminal[input_list[i].second] = i;
  }
  std::size_t next_terminal = input_list.size();
  for (const auto& [name, drivers] : ctx.output_driver) {
    ctx.output_terminals[name] = next_terminal++;
  }
  ctx.num_terminals = next_terminal;
}

// --- PlaceStage --------------------------------------------------------------

PlacementBuild build_placement_problem(const FlowContext& ctx) {
  PlacementBuild out;
  place::PlacementProblem& prob = out.problem;
  prob.num_clusters = ctx.clusters.size();
  prob.num_io_terminals = ctx.num_terminals;

  // One placement net per driver class that anything reads.
  struct NetAccum {
    place::Terminal driver;
    std::vector<place::Terminal> sinks;
    std::size_t weight = 0;
  };
  std::map<std::size_t, NetAccum> by_class;
  const auto driver_terminal = [&](std::size_t cls) {
    const auto it = ctx.input_class_terminal.find(cls);
    if (it != ctx.input_class_terminal.end()) {
      return place::Terminal::io(it->second);
    }
    return place::Terminal::cluster(
        ctx.slot_cluster[ctx.planes.slot_of_class.at(cls)]);
  };
  for (std::size_t k = 0; k < ctx.clusters.size(); ++k) {
    for (const std::size_t sig : ctx.clusters[k].pin_signals) {
      auto& acc = by_class[sig];
      if (acc.sinks.empty() && acc.weight == 0) {
        acc.driver = driver_terminal(sig);
      }
      acc.sinks.push_back(place::Terminal::cluster(k));
      ++acc.weight;
    }
  }
  for (const auto& [name, drivers] : ctx.output_driver) {
    const std::size_t term = ctx.output_terminals.at(name);
    for (const std::size_t cls : drivers) {
      if (cls == SIZE_MAX) {
        continue;
      }
      auto& acc = by_class[cls];
      if (acc.sinks.empty() && acc.weight == 0) {
        acc.driver = driver_terminal(cls);
      }
      acc.sinks.push_back(place::Terminal::io(term));
      ++acc.weight;
    }
  }
  for (auto& [cls, acc] : by_class) {
    place::PlacementNet net;
    net.driver = acc.driver;
    net.sinks = std::move(acc.sinks);
    net.weight = std::max<std::size_t>(acc.weight, 1);
    prob.nets.push_back(std::move(net));
    out.net_class.push_back(cls);
  }
  return out;
}

PlacementBuild annealed_placement_problem(FlowContext& ctx) {
  PlacementBuild build = build_placement_problem(ctx);
  // Pre-route timing-driven weighting: with no routing yet, the honest
  // criticality is logic depth — the unit-switch STA prior.  Worst
  // criticality over a class's connections and contexts bumps its
  // placement net, pulling deep paths tight before the router sees them.
  if (ctx.options.placer.timing_mode) {
    apply_class_criticality(build, logic_depth_class_criticality(ctx));
  }
  return build;
}

std::uint64_t hash_placement_problem(const place::PlacementProblem& p) {
  common::Hasher h;
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

void apply_class_criticality(PlacementBuild& build,
                             const std::map<std::size_t, double>& by_class) {
  for (std::size_t i = 0; i < build.problem.nets.size(); ++i) {
    const auto it = by_class.find(build.net_class[i]);
    build.problem.nets[i].criticality =
        it != by_class.end() ? it->second : 0.0;
  }
}

std::uint64_t resolved_placer_seed(const CompileOptions& options) {
  return options.placer.seed == place::PlacerOptions::kSeedFromFlow
             ? options.seed
             : options.placer.seed;
}

void size_fabric_and_build_graph(FlowContext& ctx) {
  if (ctx.options.auto_size) {
    while (ctx.spec.num_cells() < ctx.clusters.size() ||
           pads_available(ctx.spec) < ctx.num_terminals) {
      if (ctx.spec.width <= ctx.spec.height) {
        ++ctx.spec.width;
      } else {
        ++ctx.spec.height;
      }
    }
  }
  if (ctx.spec.num_cells() < ctx.clusters.size()) {
    throw FlowError("fabric too small: " +
                    std::to_string(ctx.clusters.size()) +
                    " logic blocks needed, " +
                    std::to_string(ctx.spec.num_cells()) +
                    " cells available");
  }
  ctx.graph = ctx.graph_slot != nullptr
                  ? ctx.graph_slot->acquire(ctx.spec)
                  : std::make_shared<const arch::RoutingGraph>(ctx.spec);
  if (ctx.graph->num_pads() < ctx.num_terminals) {
    throw FlowError("fabric has too few I/O pads");
  }
}

std::map<std::size_t, double> logic_depth_class_criticality(FlowContext& ctx) {
  // Cache the structure for RouteStage — it depends only on the
  // clustering, not on any placement.
  ctx.flow_timing = std::make_shared<FlowTiming>(build_flow_timing(ctx));
  const FlowTiming& ft = *ctx.flow_timing;
  std::map<std::size_t, double> class_criticality;
  for (std::size_t c = 0; c < ctx.spec.num_contexts; ++c) {
    const timing::ConnectionArcs arcs(ft.specs[c]);
    timing::TimingGraph sta(ft.specs[c].num_nodes, arcs.arcs());
    sta.analyze();
    for (std::size_t i = 0; i < ft.specs[c].nets.size(); ++i) {
      double crit = 0.0;
      for (std::size_t j = 0; j < ft.specs[c].nets[i].sinks.size(); ++j) {
        crit = std::max(
            crit, arcs.connection_criticality(sta, arcs.connection(i, j)));
      }
      auto [it, inserted] =
          class_criticality.emplace(ft.net_class[c][i], crit);
      if (!inserted) {
        it->second = std::max(it->second, crit);
      }
    }
  }
  return class_criticality;
}

void PlaceStage::run(FlowContext& ctx) const {
  size_fabric_and_build_graph(ctx);

  PlacementBuild build = annealed_placement_problem(ctx);
  const place::PlacementProblem& prob = build.problem;
  ctx.placement_problem_hash = hash_placement_problem(prob);
  place::PlacerOptions placer_options = ctx.options.placer;
  // Default the placer seed from the flow seed only when the caller left it
  // unset, so placement can be varied independently of the rest of the flow.
  placer_options.seed = resolved_placer_seed(ctx.options);
  ctx.placement = place::place(prob, *ctx.graph, placer_options);
  if (ctx.options.closure_iterations >= 2) {
    // Cache the problem for the closure loop's re-places — like
    // flow_timing, it depends only on the clustering.
    ctx.placement_build = std::make_shared<PlacementBuild>(std::move(build));
  }
  if (ctx.placement.restart_stats.size() > 1) {
    for (std::size_t r = 0; r < ctx.placement.restart_stats.size(); ++r) {
      ctx.stage_timings.push_back(
          StageTiming{"place.restart" + std::to_string(r),
                      ctx.placement.restart_stats[r].seconds});
    }
  }
}

// --- RouteStage --------------------------------------------------------------

std::vector<std::vector<route::RouteNet>> build_route_nets(
    const FlowContext& ctx) {
  const std::size_t n = ctx.spec.num_contexts;
  const arch::RoutingGraph& graph = *ctx.graph;

  const auto cluster_pos = [&](std::size_t k) {
    return ctx.placement.cluster_pos[k];
  };
  const auto class_driver_node = [&](std::size_t cls) -> arch::NodeId {
    const auto it = ctx.input_class_terminal.find(cls);
    if (it != ctx.input_class_terminal.end()) {
      return graph.pad(ctx.placement.io_pads[it->second]);
    }
    const std::size_t slot = ctx.planes.slot_of_class.at(cls);
    const std::size_t k = ctx.slot_cluster[slot];
    const auto [x, y] = cluster_pos(k);
    return graph.out_pin(x, y, ctx.slot_output[slot]);
  };
  const auto sink_node = [&](const SinkKey& key) -> arch::NodeId {
    if (key.kind == SinkKey::Kind::kPad) {
      return graph.pad(ctx.placement.io_pads[key.terminal]);
    }
    const auto [x, y] = cluster_pos(key.cluster);
    return graph.in_pin(x, y, key.pin);
  };

  std::vector<std::vector<route::RouteNet>> nets(n);
  for (std::size_t c = 0; c < n; ++c) {
    nets[c].reserve(ctx.net_class[c].size());
    for (std::size_t i = 0; i < ctx.net_class[c].size(); ++i) {
      route::RouteNet net;
      net.name = "net_cls" + std::to_string(ctx.net_class[c][i]);
      net.source = class_driver_node(ctx.net_class[c][i]);
      net.sinks.reserve(ctx.sink_keys[c][i].size());
      for (const SinkKey& key : ctx.sink_keys[c][i]) {
        net.sinks.push_back(sink_node(key));
      }
      nets[c].push_back(std::move(net));
    }
  }
  return nets;
}

void RouteStage::run(FlowContext& ctx) const {
  // One logical walk yields both the physical net lists and the timing
  // specs; net/sink indices of the two are aligned by construction.
  // PlaceStage may have cached the walk (it is placement-independent).
  // The logical halves (net_class, sink_keys) stay in the context so the
  // closure loop can rebuild nets after a re-place.
  FlowTiming local_timing;
  FlowTiming& ft =
      ctx.flow_timing ? *ctx.flow_timing
                      : (local_timing = build_flow_timing(ctx), local_timing);
  ctx.timing_specs = std::move(ft.specs);
  ctx.net_class = std::move(ft.net_class);
  ctx.sink_keys = std::move(ft.sink_keys);
  ctx.flow_timing.reset();  // contents were moved out; the cache is spent

  const route::Router router(*ctx.graph, ctx.options.router);
  ctx.nets_per_context = build_route_nets(ctx);
  // The history carry only matters when the loop will route again; the
  // extra output does not perturb the routing itself.
  route::RouteHistory* history =
      ctx.options.closure_iterations >= 2 ? &ctx.route_history : nullptr;
  // The interleaved post-pass wants the timing specs even with
  // timing_mode off: they power its per-wave STA scoring (the
  // timing-driven expansion cost stays gated on timing_mode inside the
  // router either way).
  const bool interleaved = ctx.options.router.cross_context_mode ==
                           route::CrossContextMode::kInterleaved;
  if (!ctx.router_pool) {
    ctx.router_pool = std::make_shared<route::CorePool>();
  }
  ctx.routing = router.route(
      ctx.nets_per_context,
      ctx.options.router.timing_mode || interleaved ? &ctx.timing_specs
                                                    : nullptr,
      history, nullptr, ctx.router_pool.get());
  if (!ctx.routing.success) {
    throw FlowError("routing failed to converge (congestion)");
  }
}

// --- TimingStage -------------------------------------------------------------

void TimingStage::run(FlowContext& ctx) const {
  const std::size_t n = ctx.spec.num_contexts;
  MCFPGA_CHECK(ctx.timing_specs.size() == n && ctx.routing.success,
               "timing stage requires a routed context");

  ctx.timing_reports.resize(n);
  ctx.context_stats.assign(n, ContextStats{});
  for (std::size_t c = 0; c < n; ++c) {
    const timing::ContextTimingSpec& spec = ctx.timing_specs[c];
    const timing::ConnectionArcs arcs(spec);
    timing::TimingGraph sta(spec.num_nodes, arcs.arcs());
    for (std::size_t i = 0; i < ctx.routing.nets[c].size(); ++i) {
      const auto& paths = ctx.routing.nets[c][i].paths;
      MCFPGA_CHECK(paths.size() == spec.nets[i].sinks.size(),
                   "routed paths must parallel the timing spec");
      for (std::size_t j = 0; j < paths.size(); ++j) {
        arcs.set_connection_switches(sta, arcs.connection(i, j),
                                     paths[j].switch_count());
      }
    }
    sta.analyze();
    ctx.timing_reports[c] = sta.report();

    auto& stats = ctx.context_stats[c];
    const route::ContextRouteSummary& summary = ctx.routing.context_summary[c];
    stats.nets = summary.nets;
    stats.wire_nodes_used = summary.wire_nodes_used;
    stats.switches_crossed = summary.switches_crossed;
    stats.critical_path = ctx.timing_reports[c].critical_path;
    stats.cross_context_conflicts = summary.cross_context_conflicts;
    stats.heap_pushes = summary.heap_pushes;
    stats.heap_pops = summary.heap_pops;
    stats.stale_pops = summary.stale_pops;
    stats.nodes_expanded = summary.nodes_expanded;
    stats.interleave_reroutes = summary.interleave_reroutes;
    stats.interleave_requeues = summary.interleave_requeues;
  }
}

// --- ProgramStage ------------------------------------------------------------

sim::LbConfig build_lb_config(const FlowContext& ctx, std::size_t k) {
  const Cluster& cl = ctx.clusters[k];
  const auto [x, y] = ctx.placement.cluster_pos[k];
  sim::LbConfig cfg;
  cfg.x = x;
  cfg.y = y;
  cfg.mode = cl.mode;
  cfg.outputs.resize(ctx.spec.logic_block.num_outputs);
  for (const std::size_t s : cl.slots) {
    auto& out = cfg.outputs[ctx.slot_output[s]];
    out.used = true;
    out.plane_tables.assign(cl.mode.planes,
                            BitVector(std::size_t{1} << cl.mode.inputs));
    for (const auto& e : ctx.planes.slots[s].entries) {
      // Pin positions of the entry's fanins.
      std::vector<std::size_t> pin(e.use.fanin_classes.size());
      for (std::size_t i = 0; i < pin.size(); ++i) {
        pin[i] = pin_of(cl, e.use.fanin_classes[i]);
      }
      BitVector table(std::size_t{1} << cl.mode.inputs);
      for (std::size_t a = 0; a < table.size(); ++a) {
        std::size_t address = 0;
        for (std::size_t i = 0; i < pin.size(); ++i) {
          if ((a >> pin[i]) & 1) {
            address |= std::size_t{1} << i;
          }
        }
        table.set(a, e.use.truth_table.get(address));
      }
      for (const std::size_t plane : e.planes) {
        out.plane_tables[plane] = table;
      }
    }
  }
  return cfg;
}

std::size_t append_lb_rows(config::Bitstream& bitstream,
                           const sim::LbConfig& lb,
                           std::size_t num_contexts) {
  const std::size_t n = num_contexts;
  std::size_t appended = 0;
  const std::string prefix =
      "lb(" + std::to_string(lb.x) + "," + std::to_string(lb.y) + ")";
  for (std::size_t o = 0; o < lb.outputs.size(); ++o) {
    if (!lb.outputs[o].used) {
      continue;
    }
    const auto& tables = lb.outputs[o].plane_tables;
    const std::size_t addresses = std::size_t{1} << lb.mode.inputs;
    for (std::size_t a = 0; a < addresses; ++a) {
      config::ContextPattern pattern(n);
      for (std::size_t c = 0; c < n; ++c) {
        pattern.set_value(c, tables[c & (lb.mode.planes - 1)].get(a));
      }
      bitstream.add_row(
          prefix + ".out" + std::to_string(o) + "[" + std::to_string(a) + "]",
          config::ResourceKind::kLutBit, std::move(pattern));
      ++appended;
    }
  }
  // Mode (size-controller) bits: context-independent by definition.
  const std::size_t mode_bits = config::num_id_bits(n);
  const std::size_t planes_log =
      static_cast<std::size_t>(std::log2(lb.mode.planes) + 0.5);
  for (std::size_t b = 0; b < mode_bits; ++b) {
    bitstream.add_row(prefix + ".mode" + std::to_string(b),
                      config::ResourceKind::kControlBit,
                      config::ContextPattern(n, ((planes_log >> b) & 1) != 0));
    ++appended;
  }
  return appended;
}

void ProgramStage::run(FlowContext& ctx) const {
  const std::size_t n = ctx.spec.num_contexts;
  const arch::RoutingGraph& graph = *ctx.graph;

  ctx.program.switch_patterns = ctx.routing.switch_patterns;
  for (std::size_t k = 0; k < ctx.clusters.size(); ++k) {
    ctx.program.lbs.push_back(build_lb_config(ctx, k));
  }
  for (const auto& [name, term] : ctx.input_terminals) {
    ctx.program.input_pads[name] = ctx.placement.io_pads[term];
  }
  for (const auto& [name, term] : ctx.output_terminals) {
    ctx.program.output_pads[name] = ctx.placement.io_pads[term];
  }

  // Full-fabric bitstream: the routing rows come straight from the
  // per-context switch patterns the router committed (no net re-scan).
  ctx.full_bitstream = ctx.routing.to_bitstream(graph);
  for (const auto& lb : ctx.program.lbs) {
    append_lb_rows(ctx.full_bitstream, lb, n);
  }
}

// --- Pipeline driver ---------------------------------------------------------

FlowContext make_flow_context(const netlist::MultiContextNetlist& netlist,
                              const arch::FabricSpec& spec,
                              const CompileOptions& options) {
  netlist.validate();
  FlowContext ctx;
  ctx.input = &netlist;
  ctx.spec = spec;
  ctx.spec.validate();
  ctx.options = options;
  MCFPGA_REQUIRE(netlist.num_contexts() == ctx.spec.num_contexts,
                 "netlist context count must match the fabric");
  MCFPGA_REQUIRE(options.closure_iterations >= 1,
                 "closure loop needs at least one iteration");
  // Negative delays would price routing below zero: the timing-driven
  // expansion would relax negative-cost cycles without end, and STA would
  // report a critical path shortened by every switch crossed.
  MCFPGA_REQUIRE(std::isfinite(options.delay.se_delay) &&
                     options.delay.se_delay >= 0.0,
                 "se_delay must be finite and non-negative");
  MCFPGA_REQUIRE(std::isfinite(options.delay.lut_delay) &&
                     options.delay.lut_delay >= 0.0,
                 "lut_delay must be finite and non-negative");
  return ctx;
}

const std::vector<const Stage*>& default_pipeline() {
  static const TechMapStage tech_map;
  static const SharingStage sharing;
  static const PlaneAllocStage plane_alloc;
  static const ClusterStage cluster;
  static const PlaceStage place;
  static const RouteStage route;
  static const TimingStage timing;
  static const ProgramStage program;
  static const std::vector<const Stage*> stages = {
      &tech_map, &sharing, &plane_alloc, &cluster,
      &place,    &route,   &timing,      &program};
  return stages;
}

void run_pipeline(FlowContext& ctx,
                  const std::vector<const Stage*>& stages) {
  using clock = std::chrono::steady_clock;
  for (const Stage* stage : stages) {
    if (ctx.observer != nullptr &&
        !ctx.observer->on_stage_start(stage->name())) {
      throw FlowCancelled(std::string("compile abandoned before stage '") +
                          stage->name() + "'");
    }
    const auto start = clock::now();
    stage->run(ctx);
    const std::chrono::duration<double> elapsed = clock::now() - start;
    ctx.stage_timings.push_back(StageTiming{stage->name(), elapsed.count()});
    if (ctx.observer != nullptr) {
      ctx.observer->on_stage_done(stage->name(), elapsed.count());
    }
  }
}

CompiledDesign finalize_design(FlowContext&& ctx) {
  CompiledDesign d;
  d.fabric = ctx.spec;
  d.netlist = std::move(ctx.netlist);
  d.sharing = std::move(ctx.sharing);
  d.planes = std::move(ctx.planes);
  d.clusters = std::move(ctx.clusters);
  d.slot_cluster = std::move(ctx.slot_cluster);
  d.slot_output = std::move(ctx.slot_output);
  d.placement = std::move(ctx.placement);
  d.routing = std::move(ctx.routing);
  d.program = std::move(ctx.program);
  d.full_bitstream = std::move(ctx.full_bitstream);
  d.context_stats = std::move(ctx.context_stats);
  d.timing_reports = std::move(ctx.timing_reports);
  d.closure_stats = std::move(ctx.closure_stats);
  d.stage_timings = std::move(ctx.stage_timings);
  d.input_terminals = std::move(ctx.input_terminals);
  d.output_terminals = std::move(ctx.output_terminals);
  return d;
}

}  // namespace mcfpga::core
