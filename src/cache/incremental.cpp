#include "cache/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "cache/key.hpp"
#include "common/error.hpp"
#include "config/context_id.hpp"
#include "core/closure.hpp"
#include "core/timing_build.hpp"
#include "place/net_index.hpp"
#include "route/router_core.hpp"

namespace mcfpga::cache {

namespace {

using Clock = std::chrono::steady_clock;

/// Fall back to a full compile when more than this fraction of DFG nodes
/// changed (union over contexts).
constexpr double kMaxDiffFraction = 0.25;
/// Fall back when more than this fraction of route nets lost their
/// previous trees after ECO placement: the partial route would do most of
/// a full route.
constexpr double kMaxInvalidatedFraction = 0.6;
/// Additive present-congestion cost pinned onto every wire node a kept
/// net occupies, so re-routed nets detour around the kept trees.
constexpr double kKeepPressure = 1e6;

void push_timing(std::vector<core::StageTiming>& timings, const char* name,
                 Clock::time_point start) {
  timings.push_back(core::StageTiming{
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

// --- ECO placement ----------------------------------------------------------

/// One piece of logic a cluster implements: (context, DFG node name).
using Member = std::pair<std::size_t, std::string>;

/// Each cluster's content identity: the sorted members of the sharing
/// classes its slots implement.  Node names survive the renumbering of
/// slots, classes and clusters an edit causes, so identities compare
/// across compiles.  `Design` is a FlowContext or a CompiledDesign.
template <class Design>
std::vector<std::vector<Member>> cluster_identities(const Design& d) {
  std::vector<std::vector<Member>> ids(d.clusters.size());
  for (std::size_t k = 0; k < d.clusters.size(); ++k) {
    for (const std::size_t s : d.clusters[k].slots) {
      for (const mapping::SlotEntry& e : d.planes.slots[s].entries) {
        for (const auto& [c, node] : d.sharing.classes[e.use.cls].members) {
          ids[k].emplace_back(c, d.netlist.context(c).node(node).name);
        }
      }
    }
    std::sort(ids[k].begin(), ids[k].end());
  }
  return ids;
}

/// ECO placement (incremental placement in the sense of Singh & Brown,
/// ICCAD 2002): every cluster whose identity survived the edit keeps its
/// previous site (equal identities pair in index order), and every I/O
/// terminal whose name survived keeps its pad.  An unmatched cluster
/// takes the still-free site of the retired previous cluster it shares
/// the most members with; whatever is left takes the free site (clusters
/// first, in index order) or free pad (then terminals) with the lowest
/// placement cost over the terminals already placed, timing weights
/// included, ties to the lowest cell or pad index.  Any injective
/// assignment is legal, so the matching decides only how many routed
/// trees survive.  Requires the fabric of `prev` (the caller gates it).
place::Placement eco_place(const core::FlowContext& ctx,
                           const place::PlacementProblem& problem,
                           const core::CompiledDesign& prev) {
  const arch::RoutingGraph& graph = *ctx.graph;
  const std::size_t width = ctx.spec.width;
  const std::size_t num_clusters = problem.num_clusters;
  const auto cell_of = [width](const std::pair<std::size_t, std::size_t>& p) {
    return p.second * width + p.first;
  };
  std::vector<std::size_t> cluster_cell(num_clusters, SIZE_MAX);
  std::vector<std::size_t> io_pad(problem.num_io_terminals, SIZE_MAX);
  std::vector<std::uint8_t> cell_used(ctx.spec.num_cells(), 0);
  std::vector<std::uint8_t> pad_used(graph.num_pads(), 0);
  const auto take_cell = [&](std::size_t k, std::size_t cell) {
    cluster_cell[k] = cell;
    cell_used[cell] = 1;
  };

  // Exact matches keep their sites.
  const auto now_ids = cluster_identities(ctx);
  const auto prev_ids = cluster_identities(prev);
  std::map<std::vector<Member>, std::vector<std::size_t>> prev_by_id;
  for (std::size_t j = prev_ids.size(); j-- > 0;) {
    prev_by_id[prev_ids[j]].push_back(j);  // reversed: back() = lowest j
  }
  for (std::size_t k = 0; k < num_clusters; ++k) {
    const auto it = prev_by_id.find(now_ids[k]);
    if (it != prev_by_id.end() && !it->second.empty()) {
      take_cell(k, cell_of(prev.placement.cluster_pos[it->second.back()]));
      it->second.pop_back();
    }
  }
  // Surviving terminals keep their pads.
  const auto keep_pads = [&](const std::map<std::string, std::size_t>& now,
                             const std::map<std::string, std::size_t>& was) {
    for (const auto& [name, t] : now) {
      const auto it = was.find(name);
      if (it != was.end()) {
        io_pad[t] = prev.placement.io_pads[it->second];
        pad_used[io_pad[t]] = 1;
      }
    }
  };
  keep_pads(ctx.input_terminals, prev.input_terminals);
  keep_pads(ctx.output_terminals, prev.output_terminals);

  // Unmatched clusters inherit the site of their closest retired cluster.
  std::map<Member, std::size_t> retired_owner;
  for (const auto& [id, retired] : prev_by_id) {
    for (const std::size_t j : retired) {
      for (const Member& m : id) {
        retired_owner.emplace(m, j);
      }
    }
  }
  for (std::size_t k = 0; k < num_clusters; ++k) {
    if (cluster_cell[k] != SIZE_MAX) {
      continue;
    }
    std::map<std::size_t, std::size_t> shared;  // retired cluster -> count
    for (const Member& m : now_ids[k]) {
      const auto it = retired_owner.find(m);
      if (it != retired_owner.end() &&
          cell_used[cell_of(prev.placement.cluster_pos[it->second])] == 0) {
        ++shared[it->second];
      }
    }
    std::size_t best = SIZE_MAX;
    std::size_t best_count = 0;
    for (const auto& [j, count] : shared) {
      if (count > best_count) {
        best = j;
        best_count = count;
      }
    }
    if (best != SIZE_MAX) {
      take_cell(k, cell_of(prev.placement.cluster_pos[best]));
    }
  }

  // The rest go where they add the least cost to the placed terminals.
  const place::NetIndex index(problem, ctx.options.placer);
  std::vector<std::int32_t> xs(index.num_terminals(), 0);
  std::vector<std::int32_t> ys(index.num_terminals(), 0);
  std::vector<std::uint8_t> placed(index.num_terminals(), 0);
  const auto set_position = [&](std::size_t t,
                                std::pair<std::int32_t, std::int32_t> at) {
    xs[t] = at.first;
    ys[t] = at.second;
    placed[t] = 1;
  };
  const auto cell_at = [width](std::size_t cell) {
    return std::pair{static_cast<std::int32_t>(cell % width),
                     static_cast<std::int32_t>(cell / width)};
  };
  const auto pad_at = [&graph](std::size_t p) {
    const arch::RRNode& node = graph.node(graph.pad(p));
    return std::pair{node.x, node.y};
  };
  for (std::size_t k = 0; k < num_clusters; ++k) {
    if (cluster_cell[k] != SIZE_MAX) {
      set_position(k, cell_at(cluster_cell[k]));
    }
  }
  for (std::size_t t = 0; t < io_pad.size(); ++t) {
    if (io_pad[t] != SIZE_MAX) {
      set_position(num_clusters + t, pad_at(io_pad[t]));
    }
  }
  // Lowest-cost free slot for terminal t: `used` marks taken slots and
  // `at(slot)` gives a slot's coordinates.  Each incident net is priced
  // as its weighted half-perimeter over its placed terminals plus t.
  struct Span {
    bool any = false;
    std::int32_t min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  };
  std::vector<Span> spans;
  const auto best_slot = [&](std::size_t t,
                             const std::vector<std::uint8_t>& used,
                             const auto& at) {
    spans.clear();
    for (const auto* tn = index.terminal_nets_begin(t);
         tn != index.terminal_nets_end(t); ++tn) {
      Span s;
      for (const std::uint32_t* m = index.net_terms_begin(tn->net);
           m != index.net_terms_end(tn->net); ++m) {
        if (*m == t || placed[*m] == 0) {
          continue;
        }
        s.min_x = s.any ? std::min(s.min_x, xs[*m]) : xs[*m];
        s.max_x = s.any ? std::max(s.max_x, xs[*m]) : xs[*m];
        s.min_y = s.any ? std::min(s.min_y, ys[*m]) : ys[*m];
        s.max_y = s.any ? std::max(s.max_y, ys[*m]) : ys[*m];
        s.any = true;
      }
      spans.push_back(s);
    }
    std::size_t best = SIZE_MAX;
    std::int64_t best_cost = 0;
    for (std::size_t slot = 0; slot < used.size(); ++slot) {
      if (used[slot] != 0) {
        continue;
      }
      const auto [x, y] = at(slot);
      std::int64_t cost = 0;
      std::size_t i = 0;
      for (const auto* tn = index.terminal_nets_begin(t);
           tn != index.terminal_nets_end(t); ++tn, ++i) {
        const Span& s = spans[i];
        if (s.any) {
          cost += index.net_weight(tn->net) *
                  (std::int64_t{std::max(s.max_x, x) - std::min(s.min_x, x)} +
                   std::int64_t{std::max(s.max_y, y) - std::min(s.min_y, y)});
        }
      }
      if (best == SIZE_MAX || cost < best_cost) {
        best = slot;
        best_cost = cost;
      }
    }
    MCFPGA_CHECK(best != SIZE_MAX, "ECO placement ran out of free slots");
    set_position(t, at(best));
    return best;
  };
  for (std::size_t k = 0; k < num_clusters; ++k) {
    if (cluster_cell[k] == SIZE_MAX) {
      take_cell(k, best_slot(k, cell_used, cell_at));
    }
  }
  for (std::size_t t = 0; t < io_pad.size(); ++t) {
    if (io_pad[t] == SIZE_MAX) {
      io_pad[t] = best_slot(num_clusters + t, pad_used, pad_at);
      pad_used[io_pad[t]] = 1;
    }
  }

  place::Placement out;
  out.cluster_pos.reserve(num_clusters);
  for (const std::size_t cell : cluster_cell) {
    out.cluster_pos.emplace_back(cell % width, cell / width);
  }
  out.io_pads = std::move(io_pad);
  out.cost = place::placement_cost(problem, graph, out, ctx.options.placer);
  return out;
}

// --- incremental ProgramStage -----------------------------------------------

/// LB input pin of class `cls` on `cluster`.
std::size_t pin_of(const core::Cluster& cluster, std::size_t cls) {
  return static_cast<std::size_t>(
      std::find(cluster.pin_signals.begin(), cluster.pin_signals.end(), cls) -
      cluster.pin_signals.begin());
}

/// Whether new cluster k programs exactly like cached cluster j at the
/// same site, WITHOUT rebuilding its LUT tables: mode, and per slot its
/// LB output and every plane entry (plane set, truth table, and the pins
/// its fanins land on) must match.  Class and slot ids are compared only
/// through the pins they map to, so a renumbering edit still matches.
/// Comparing the recipe is O(slots * entries); rebuilding is O(2^inputs)
/// per entry.
bool lb_recipe_unchanged(const core::FlowContext& ctx, std::size_t k,
                         const core::CompiledDesign& prev, std::size_t j) {
  const core::Cluster& now = ctx.clusters[k];
  const core::Cluster& old = prev.clusters[j];
  if (now.mode != old.mode || now.slots.size() != old.slots.size()) {
    return false;
  }
  for (std::size_t i = 0; i < now.slots.size(); ++i) {
    const std::size_t s = now.slots[i];
    const std::size_t t = old.slots[i];
    if (ctx.slot_output[s] != prev.slot_output[t]) {
      return false;
    }
    const auto& a = ctx.planes.slots[s].entries;
    const auto& b = prev.planes.slots[t].entries;
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t e = 0; e < a.size(); ++e) {
      const auto& fa = a[e].use.fanin_classes;
      const auto& fb = b[e].use.fanin_classes;
      if (a[e].planes != b[e].planes || fa.size() != fb.size() ||
          !(a[e].use.truth_table == b[e].use.truth_table)) {
        return false;
      }
      for (std::size_t f = 0; f < fa.size(); ++f) {
        if (pin_of(now, fa[f]) != pin_of(old, fb[f])) {
          return false;
        }
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
/// survived the edit, and a cluster programmed like the cached cluster
/// that held its site, copy their cached rows verbatim; only changed
/// resources re-derive tables and re-emit rows.  Produces a bitstream
/// bit-identical to ProgramStage::run.  When the cached row ledger cannot
/// be aligned (never expected from this pipeline's gates), falls back to
/// a full reprogram and says so.
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

  if (prev.program.lbs.size() != prev.clusters.size() ||
      prev.routing.switch_patterns.size() != num_switches ||
      pb.num_contexts() != n || pb.num_rows() < num_switches) {
    return full_reprogram();
  }
  // Cached cluster j's rows start at block[j]: LB blocks follow the
  // routing rows in cluster order, each sized by its cached LbConfig.
  std::vector<std::size_t> block(prev.clusters.size() + 1, num_switches);
  for (std::size_t j = 0; j < prev.clusters.size(); ++j) {
    const sim::LbConfig& cached = prev.program.lbs[j];
    std::size_t rows = config::num_id_bits(n);
    for (const auto& o : cached.outputs) {
      if (o.used) {
        rows += std::size_t{1} << cached.mode.inputs;
      }
    }
    block[j + 1] = block[j] + rows;
  }
  if (block.back() != pb.num_rows()) {
    return full_reprogram();
  }
  // Cached cluster per site (the fabric is the cached one: gated).
  std::vector<std::size_t> prev_at_cell(ctx.spec.num_cells(), SIZE_MAX);
  for (std::size_t j = 0; j < prev.clusters.size(); ++j) {
    const auto [x, y] = prev.placement.cluster_pos[j];
    prev_at_cell[y * ctx.spec.width + x] = j;
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

  // LB rows: a cluster programmed like the cached cluster at its site
  // copies that cluster's whole row block.
  for (std::size_t k = 0; k < ctx.clusters.size(); ++k) {
    const auto [x, y] = ctx.placement.cluster_pos[k];
    const std::size_t j = prev_at_cell[y * ctx.spec.width + x];
    if (j != SIZE_MAX && lb_recipe_unchanged(ctx, k, prev, j)) {
      for (std::size_t r = block[j]; r < block[j + 1]; ++r) {
        const config::BitstreamRow& row = pb.row(r);
        bs.add_row(row.name, row.kind, row.pattern);
      }
      out.rows_reused += block[j + 1] - block[j];
      ctx.program.lbs.push_back(prev.program.lbs[j]);
    } else {
      sim::LbConfig cfg = core::build_lb_config(ctx, k);
      out.rows_reprogrammed += core::append_lb_rows(bs, cfg, n);
      ctx.program.lbs.push_back(std::move(cfg));
    }
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
  const std::uint64_t key = flow_base_key(netlist, ctx.spec, options);
  Compiled out;
  out.netlist = netlist;
  out.spec = spec;
  out.options = options;

  // One lookup before any stage runs.  A hit is the compile's only step;
  // a miss abandons the step and runs the whole pipeline.
  observe_start(observer, "cache");
  const Clock::time_point start = Clock::now();
  if (const auto hit = cache_.find(key)) {
    out.design = hit->design;  // the bitstream shares the stored rows
    out.placement_problem_hash = hit->placement_problem_hash;
    push_timing(out.design.stage_timings, "cache", start);
    observe_done(observer, "cache", start);
    fill_cache_stats(out.design, 1, 0);
    return out;
  }

  ctx.observer = observer;
  ctx.graph_slot = &graph_slot_;
  core::run_pipeline(ctx, options.closure_iterations >= 2
                              ? core::closure_pipeline()
                              : core::default_pipeline());
  out.placement_problem_hash = ctx.placement_problem_hash;
  out.design = core::finalize_design(std::move(ctx));
  cache_.store(key, out.design, out.placement_problem_hash);
  fill_cache_stats(out.design, 0, 1);
  return out;
}

Compiled CompileService::fallback(const Compiled& previous,
                                  const netlist::MultiContextNetlist& edited,
                                  const core::CompileOptions& options,
                                  const char* reason,
                                  core::StageObserver* observer) {
  // Counted before the compile so fill_cache_stats (inside it) already
  // sees this event in the breakdown it copies out.  The fallback is an
  // ordinary compile: it looks the edited design up and, on a miss,
  // re-runs the front end the delta path already ran.
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
    // Bit-for-bit the previous design: let the design cache replay it.
    return compile(edited, previous.spec, options, observer);
  }
  if (diff.fraction() > kMaxDiffFraction) {
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

  // --- front-end (cheap, uncached): techmap / sharing / planes / cluster --
  // The delta path's outputs are not full-pipeline designs, so nothing of
  // it is looked up or stored.
  core::FlowContext ctx =
      core::make_flow_context(edited, previous.spec, options);
  ctx.observer = observer;
  ctx.graph_slot = &graph_slot_;
  const auto& pipeline = core::default_pipeline();
  core::run_pipeline(
      ctx, std::vector<const core::Stage*>(pipeline.begin(),
                                           pipeline.begin() + 4));

  // --- compatibility gate: the previous physical world must still fit ---
  // (a cluster or terminal that does not fit grows the fabric)
  observe_start(observer, "place");
  const Clock::time_point place_start = Clock::now();
  core::size_fabric_and_build_graph(ctx);
  if (ctx.spec.width != previous.design.fabric.width ||
      ctx.spec.height != previous.design.fabric.height) {
    return fallback(previous, edited, options, "fabric resized", observer);
  }

  // --- placement: verbatim reuse or ECO placement -------------------------
  // Both skip the whole cold anneal.  Placement is a pure function of the
  // problem, so reusing it for an unchanged problem keeps the design
  // bit-identical to a from-scratch compile.
  const core::PlacementBuild build = core::annealed_placement_problem(ctx);
  const std::uint64_t problem_hash =
      core::hash_placement_problem(build.problem);
  // The cold anneal's budget, with place::place's default sweep length.
  const std::size_t moves_per_sweep =
      options.placer.moves_per_sweep != 0
          ? options.placer.moves_per_sweep
          : 16 * (ctx.clusters.size() + ctx.num_terminals + 1);
  const std::size_t moves_saved =
      options.placer.sweeps * moves_per_sweep *
      std::max<std::size_t>(1, options.placer.num_restarts);
  if (problem_hash == previous.placement_problem_hash &&
      ctx.clusters.size() == previous.design.clusters.size() &&
      ctx.num_terminals == previous.design.placement.io_pads.size()) {
    ctx.placement = previous.design.placement;
  } else {
    ctx.placement = eco_place(ctx, build.problem, previous.design);
  }
  push_timing(ctx.stage_timings, "place", place_start);
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
          kMaxInvalidatedFraction * static_cast<double>(total_nets)) {
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
              pressure[static_cast<std::size_t>(edge.from)] = kKeepPressure;
            }
            if (is_wire(graph, edge.to)) {
              pressure[static_cast<std::size_t>(edge.to)] = kKeepPressure;
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
  push_timing(ctx.stage_timings, "route", route_start);
  observe_done(observer, "route", route_start);

  observe_start(observer, "timing");
  const Clock::time_point timing_start = Clock::now();
  core::TimingStage().run(ctx);
  for (std::size_t c = 0; c < n; ++c) {
    ctx.context_stats[c].nets_invalidated = plans[c].invalid.size();
    ctx.context_stats[c].nets_rerouted = plans[c].invalid.size();
  }
  push_timing(ctx.stage_timings, "timing", timing_start);
  observe_done(observer, "timing", timing_start);

  observe_start(observer, "program");
  const Clock::time_point program_start = Clock::now();
  const ProgramDelta program_delta =
      run_program_incremental(ctx, previous.design);
  push_timing(ctx.stage_timings, "program", program_start);
  observe_done(observer, "program", program_start);

  Compiled out;
  out.netlist = edited;
  out.spec = previous.spec;
  out.options = options;
  out.placement_problem_hash = problem_hash;
  out.design = core::finalize_design(std::move(ctx));
  fill_cache_stats(out.design, 0, 0);
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
  design.cache.delta_fallback_counts = fallback_reasons();
}

}  // namespace mcfpga::cache
