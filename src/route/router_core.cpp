#include "route/router_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/prefetch.hpp"

namespace mcfpga::route {

namespace {

using arch::EdgeId;
using arch::NodeId;
using arch::NodeKind;
using arch::SwitchOwner;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Base cost of a pin or pad — the cheapest node, so every relaxation adds
/// at least this much congestion cost (the bucket quantum's floor).
constexpr double kMinNodeCost = 0.5;

/// Calendar span of the kBucket engine before pushes spill to the overflow
/// list.  1024 buckets x 0.5 quantum covers a 512-cost horizon per rebase,
/// far beyond one relaxation wave.
constexpr std::size_t kBucketSpan = 1024;

/// Epoch headroom: a pass can never consume this many expansions, so
/// rewinding the stamps whenever a pass STARTS above the threshold keeps
/// pooled cores (which live across thousands of passes) from ever wrapping
/// a 32-bit epoch mid-expansion.
constexpr std::uint32_t kEpochRewind = 0xF0000000u;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Content signature of a timing spec: shape, delays, and every reader
/// arc.  Two specs with equal signatures levelize to the same DAG, so a
/// cached TimingEngine may serve either; the cache additionally pins the
/// spec's address, making a false positive require a respawned object at
/// the same address whose content ALSO collides — at which point the DAG
/// is the same anyway.
std::uint64_t spec_signature(const timing::ContextTimingSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, spec.num_nodes);
  h = fnv1a(h, std::bit_cast<std::uint64_t>(spec.se_delay));
  h = fnv1a(h, std::bit_cast<std::uint64_t>(spec.lut_delay));
  h = fnv1a(h, spec.nets.size());
  for (const auto& net : spec.nets) {
    h = fnv1a(h, net.sinks.size());
    for (const auto& sink : net.sinks) {
      h = fnv1a(h, sink.readers.size());
      for (const auto& r : sink.readers) {
        h = fnv1a(h, (static_cast<std::uint64_t>(r.from) << 32) | r.to);
        h = fnv1a(h, r.is_lut ? 1u : 0u);
      }
    }
  }
  return h;
}

}  // namespace

RouterCore::RouterCore(const arch::RoutingGraph& graph,
                       const RouterOptions& options,
                       common::ScratchArena* arena)
    : graph_(graph), options_(options), arena_(arena) {
  if (arena_ == nullptr) {
    arena_owned_ = std::make_unique<common::ScratchArena>();
    arena_ = arena_owned_.get();
  }
  arena_->reset();
  const std::size_t n = graph_.num_nodes();
  scratch_nodes_ = n;
  base_cost_ = arena_->alloc<double>(n);
  is_wire_ = arena_->alloc<std::uint8_t>(n);
  occupancy_ = arena_->alloc<int>(n);
  history_ = arena_->alloc<double>(n);
  node_cost_ = arena_->alloc<double>(n);
  nodes_ = arena_->alloc<NodeState>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = graph_.node(static_cast<NodeId>(i));
    is_wire_[i] = node.kind == NodeKind::kWire ? 1 : 0;
    // Double-length wires cover two cells for one node, so per-distance
    // they are cheaper; pricing them at 3.5 when disabled-by-preference
    // keeps them routable but unattractive (the E5 ablation).
    if (node.kind != NodeKind::kWire) {
      base_cost_[i] = kMinNodeCost;  // pins/pads: cheap, they are endpoints
    } else if (node.length == 2) {
      base_cost_[i] = options_.prefer_double_length ? 1.0 : 3.5;
    } else {
      base_cost_[i] = 1.0;
    }
  }
  // Zeroed stamps are stale against the pre-incremented epochs (first use
  // is 1); dist/prev/depth are don't-care until stamped.
  if (n > 0) {
    std::memset(nodes_, 0, n * sizeof(NodeState));
    std::memset(occupancy_, 0, n * sizeof(int));
    std::memset(history_, 0, n * sizeof(double));
    std::memset(node_cost_, 0, n * sizeof(double));
  }
  epoch_ = 0;
  tree_epoch_ = 0;
}

void RouterCore::heap_push(double cost, NodeId value) {
  heap_.push_back(HeapItem{cost, value});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapItem& a, const HeapItem& b) {
                   return a.cost > b.cost;
                 });
}

RouterCore::HeapItem RouterCore::heap_pop() {
  MCFPGA_REQUIRE(!heap_.empty(), "pop from an empty router heap");
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapItem& a, const HeapItem& b) {
                  return a.cost > b.cost;
                });
  const HeapItem item = heap_.back();
  heap_.pop_back();
  return item;
}

double RouterCore::dist_of(std::size_t node) const {
  return nodes_[node].dist_epoch == epoch_ ? nodes_[node].dist : kInf;
}

void RouterCore::refresh_node_cost(std::size_t idx) {
  // Pressure is a present-cost term: wires claimed by other (weighted by
  // how critical) contexts, or pinned by a delta recompile, look
  // congested before this context ever touches them.  Null pressure =
  // bit-identical to the independent router.  The expression and its
  // operation order are the historical inline ones, so the cache is
  // bit-neutral.
  double congestion = 1.0 + history_[idx] +
                      present_factor_ * static_cast<double>(occupancy_[idx]);
  if (pressure_of_ != nullptr) {
    // pressure_scale_ is 1.0 outside interleaved sessions, and x * 1.0 is
    // bit-exact — pressured route_pass calls stay bit-identical.
    congestion += pressure_scale_ * pressure_of_[idx];
  }
  node_cost_[idx] = base_cost_[idx] * congestion;
}

template <typename Queue>
bool RouterCore::expand_to_sink(Queue& queue,
                                const std::vector<arch::NodeId>& tree,
                                arch::NodeId sink, double cong_scale,
                                double delay_term, ContextResult& result) {
  const std::vector<std::size_t>& offsets = graph_.csr_offsets();
  const std::vector<EdgeId>& csr_edges = graph_.csr_edges();
  const std::vector<NodeId>& csr_targets = graph_.csr_targets();

  ++epoch_;
  queue.clear();
  for (const NodeId t : tree) {
    const std::size_t ti = static_cast<std::size_t>(t);
    NodeState& s = nodes_[ti];
    const double seed = delay_term * static_cast<double>(s.depth);
    s.dist = seed;
    s.prev = -1;
    s.dist_epoch = epoch_;
    queue.push(seed, t);
    ++result.heap_pushes;
  }
  while (!queue.empty()) {
    const auto item = queue.pop();
    ++result.heap_pops;
    const std::size_t u = static_cast<std::size_t>(item.value);
    if (item.cost > dist_of(u)) {
      ++result.stale_pops;
      continue;
    }
    if (item.value == sink) {
      return true;
    }
    // Pins and pads are terminals: do not route THROUGH them.
    if (is_wire_[u] == 0 && item.cost != 0.0) {
      continue;
    }
    ++result.nodes_expanded;
    const std::size_t end = offsets[u + 1];
    for (std::size_t at = offsets[u]; at < end; ++at) {
      const NodeId v = csr_targets[at];
      const std::size_t vi = static_cast<std::size_t>(v);
      if (at + 1 < end) {
        // The next neighbor's cost and route record are known one step
        // early — overlap their (likely-missing) loads with this one.
        const std::size_t ni = static_cast<std::size_t>(csr_targets[at + 1]);
        MCFPGA_PREFETCH(&node_cost_[ni]);
        MCFPGA_PREFETCH(&nodes_[ni]);
      }
      // Only the target sink may be entered among non-wire nodes.
      if (is_wire_[vi] == 0 && v != sink) {
        continue;
      }
      // Interleaved sessions route exclusively: a node any peer net of
      // this context occupies is off limits (the ripped net's own nodes
      // are free — its occupancy was released before the re-route).  A
      // no-op outside sessions: the flag is only set between
      // session_begin and session_finish.
      if (session_exclusive_ && occupancy_[vi] != 0) {
        continue;
      }
      // Nodes already in the net's tree are seeds, never targets:
      // relaxing one below its upstream-delay seed would back-trace
      // a second switch into it (a double-driven wire).  With zero
      // seeds this skip is a no-op — every relaxation cost is
      // strictly positive — so congestion-mode routing is untouched.
      NodeState& sv = nodes_[vi];
      if (sv.tree_epoch == tree_epoch_) {
        continue;
      }
      const double nd = item.cost + cong_scale * node_cost_[vi] + delay_term;
      if (nd < (sv.dist_epoch == epoch_ ? sv.dist : kInf)) {
        sv.dist = nd;
        sv.prev = csr_edges[at];
        sv.dist_epoch = epoch_;
        queue.push(nd, v);
        ++result.heap_pushes;
        // The pushed node's CSR row is its expansion's first load.
        MCFPGA_PREFETCH(&csr_targets[offsets[vi]]);
      }
    }
  }
  return false;
}

bool RouterCore::expand(const std::vector<arch::NodeId>& tree,
                        arch::NodeId sink, double cong_scale,
                        double delay_term, ContextResult& result) {
  if (options_.queue_mode == QueueMode::kBucket) {
    return expand_to_sink(bucket_, tree, sink, cong_scale, delay_term,
                          result);
  }
  BinaryQueue binary{*this};
  return expand_to_sink(binary, tree, sink, cong_scale, delay_term, result);
}

RoutedPath RouterCore::trace_path(arch::NodeId sink,
                                  std::vector<arch::NodeId>& tree) {
  RoutedPath path;
  path.sink = sink;
  NodeId cur = sink;
  while (nodes_[static_cast<std::size_t>(cur)].prev != -1) {
    const EdgeId e = nodes_[static_cast<std::size_t>(cur)].prev;
    path.edges.push_back(e);
    if (graph_.rr_switch(graph_.edge(e).sw).owner == SwitchOwner::kDiamond) {
      ++path.diamond_count;
    }
    cur = graph_.edge(e).from;
  }
  std::reverse(path.edges.begin(), path.edges.end());
  // Source-to-sink order guarantees every edge's from-node already carries
  // its depth (tree node or earlier path node), so new nodes accumulate
  // upstream switch counts in one pass.
  for (const EdgeId e : path.edges) {
    const NodeId v = graph_.edge(e).to;
    const std::size_t vi = static_cast<std::size_t>(v);
    if (nodes_[vi].tree_epoch != tree_epoch_) {
      nodes_[vi].tree_epoch = tree_epoch_;
      nodes_[vi].depth =
          nodes_[static_cast<std::size_t>(graph_.edge(e).from)].depth + 1;
      tree.push_back(v);
    }
  }
  return path;
}

void RouterCore::begin_pass(const timing::ContextTimingSpec* timing) {
  // A pooled core lives across thousands of passes; rewind the 32-bit
  // epoch stamps long before they could wrap mid-pass.
  if (epoch_ >= kEpochRewind || tree_epoch_ >= kEpochRewind) {
    for (std::size_t i = 0; i < scratch_nodes_; ++i) {
      nodes_[i].dist_epoch = 0;
      nodes_[i].tree_epoch = 0;
    }
    epoch_ = 0;
    tree_epoch_ = 0;
  }
  if (options_.queue_mode == QueueMode::kBucket) {
    bucket_.configure(bucket_quantum_for(options_, timing), kBucketSpan);
    bucket_.clear();
  }
}

RouterCore::TimingEngine& RouterCore::timing_engine(
    const timing::ContextTimingSpec& spec) {
  const std::uint64_t sig = spec_signature(spec);
  for (auto& eng : timing_cache_) {
    if (eng->spec == &spec && eng->signature == sig) {
      // Rewind to the unit-switch prior.  Incremental analyze() is
      // bit-identical to a from-scratch pass (the TimingGraph property
      // tests' oracle), so a cache hit is indistinguishable from a fresh
      // levelization — minus the levelization.
      for (std::size_t conn = 0; conn < eng->arcs.num_connections(); ++conn) {
        eng->arcs.set_connection_switches(eng->sta, conn, 1);
      }
      eng->sta.analyze();
      return *eng;
    }
  }
  // A same-address miss means the spec object was rewritten: drop the
  // stale engine rather than letting the cache grow one corpse per edit.
  std::erase_if(timing_cache_, [&](const std::unique_ptr<TimingEngine>& e) {
    return e->spec == &spec;
  });
  if (timing_cache_.size() >= 8) {
    timing_cache_.erase(timing_cache_.begin());
  }
  timing_cache_.push_back(std::make_unique<TimingEngine>(spec, sig));
  timing_cache_.back()->sta.analyze();  // logic-depth criticality prior
  return *timing_cache_.back();
}

RouterCore::ContextResult RouterCore::route_pass(
    const std::vector<RouteNet>& nets,
    const timing::ContextTimingSpec* timing, std::vector<double>* history,
    const std::vector<double>* pressure) {
  const std::size_t num_nodes = graph_.num_nodes();
  MCFPGA_CHECK(scratch_nodes_ == num_nodes,
               "route_pass scratch must be graph-node-sized");
  MCFPGA_CHECK(!session_active_,
               "route_pass would clobber an active interleaved session");
  MCFPGA_REQUIRE(pressure == nullptr || pressure->size() == num_nodes,
                 "cross-context pressure must be graph-node-sized");
  pressure_of_ = pressure ? pressure->data() : nullptr;
  std::fill_n(occupancy_, num_nodes, 0);
  if (history != nullptr && history->size() == num_nodes) {
    // Carry-in from a previous closure-loop iteration: start negotiation
    // with the congestion lessons already learned on this context.
    std::copy(history->begin(), history->end(), history_);
  } else {
    std::fill_n(history_, num_nodes, 0.0);
  }
  present_factor_ = 0.5;
  begin_pass(timing);

  // Per-context incremental STA (timing-driven mode only).  The DAG's
  // topology is fixed for the whole negotiation; only switch counts — arc
  // delays — change between iterations, which is exactly the incremental
  // case TimingGraph::analyze() is built for.  The levelized engine is
  // cached across passes (timing_engine), so closure iterations re-time
  // instead of re-levelizing.
  const bool timing_driven = options_.timing_mode && timing != nullptr;
  timing::ConnectionArcs* conn_arcs = nullptr;
  timing::TimingGraph* sta = nullptr;
  if (timing_driven) {
    MCFPGA_REQUIRE(timing->nets.size() == nets.size(),
                   "timing spec must parallel the context's net list");
    for (std::size_t i = 0; i < nets.size(); ++i) {
      MCFPGA_REQUIRE(timing->nets[i].sinks.size() == nets[i].sinks.size(),
                     "timing spec sinks must parallel the net's sinks");
    }
    TimingEngine& engine = timing_engine(*timing);
    conn_arcs = &engine.arcs;
    sta = &engine.sta;
    crit_.assign(conn_arcs->num_connections(), 0.0);
  }
  // VPR-style exponent ramp: the sharpening applied to criticalities
  // grows across rip-up iterations, so early rounds spread congestion
  // while late rounds chase the critical path hard.
  const auto exponent_at = [&](std::size_t iteration) {
    const RouterOptions::CriticalityExponentSchedule& s =
        options_.criticality_exponent_schedule;
    return std::min(s.max, s.start + s.step * static_cast<double>(iteration));
  };
  const auto refresh_criticality = [&](std::size_t iteration) {
    const double exponent = exponent_at(iteration);
    for (std::size_t conn = 0; conn < crit_.size(); ++conn) {
      double c = conn_arcs->connection_criticality(*sta, conn);
      if (exponent != 1.0) {
        c = std::pow(c, exponent);
      }
      crit_[conn] = std::min(c, options_.max_criticality);
    }
  };
  if (timing_driven) {
    refresh_criticality(0);
  }

  ContextResult result;
  result.nets.resize(nets.size());
  std::vector<std::vector<NodeId>> tree_nodes(nets.size());

  const auto unroute = [&](std::size_t i) {
    for (const NodeId n : tree_nodes[i]) {
      const std::size_t ni = static_cast<std::size_t>(n);
      --occupancy_[ni];
      refresh_node_cost(ni);
    }
    tree_nodes[i].clear();
    result.nets[i].paths.clear();
  };

  bool converged = false;
  std::size_t iter = 0;
  for (; iter < options_.max_iterations; ++iter) {
    // Congestion inputs (history, present factor) changed since the last
    // iteration: rebuild the hoisted per-node cost once, then patch it on
    // the O(tree) occupancy edits below.
    for (std::size_t n = 0; n < num_nodes; ++n) {
      refresh_node_cost(n);
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const RouteNet& net = nets[i];
      if (!tree_nodes[i].empty()) {
        unroute(i);
      }
      result.nets[i].name = net.name;
      result.nets[i].source = net.source;

      // Grow the routing tree sink by sink (Prim-style maze expansion).
      std::vector<NodeId>& tree = tree_nodes[i];
      tree.push_back(net.source);
      ++tree_epoch_;
      nodes_[static_cast<std::size_t>(net.source)].tree_epoch = tree_epoch_;
      nodes_[static_cast<std::size_t>(net.source)].depth = 0;

      for (std::size_t j = 0; j < net.sinks.size(); ++j) {
        const NodeId sink = net.sinks[j];
        // Timing-driven blend for this connection: every node entered is
        // one switch crossing, so the delay term is crit * se_delay per
        // expansion step.  Reused tree wire seeds the expansion at its
        // accumulated upstream delay (crit-weighted, congestion-free), so
        // branching deep in the tree is not mistaken for a zero-delay
        // start.  With timing off the scales are exactly (1, 0) and every
        // seed is 0, leaving the cost bit-identical to the pure congestion
        // router.
        double cong_scale = 1.0;
        double delay_term = 0.0;
        if (timing_driven) {
          const double c = crit_[conn_arcs->connection(i, j)];
          cong_scale = 1.0 - c;
          delay_term = c * timing->se_delay;
        }
        if (!expand(tree, sink, cong_scale, delay_term, result)) {
          throw FlowError("router: no physical path from " +
                          graph_.node(net.source).name + " to " +
                          graph_.node(sink).name);
        }
        result.nets[i].paths.push_back(trace_path(sink, tree));
      }

      for (const NodeId n : tree) {
        const std::size_t ni = static_cast<std::size_t>(n);
        ++occupancy_[ni];
        refresh_node_cost(ni);
      }
    }

    // Congestion check: wires may carry one net per context; source pins
    // are naturally exclusive; sink pins may be reached by one net only.
    bool overused = false;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (occupancy_[n] > 1) {
        overused = true;
        history_[n] += options_.history_increment *
                       static_cast<double>(occupancy_[n] - 1);
      }
    }
    if (!overused) {
      converged = true;
      break;
    }
    present_factor_ *= options_.present_factor_growth;

    if (timing_driven) {
      // Re-time every connection at its current switch count (incremental:
      // only changed delays propagate) and pull fresh criticalities for
      // the next rip-up round.
      for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto& paths = result.nets[i].paths;
        for (std::size_t j = 0; j < paths.size(); ++j) {
          conn_arcs->set_connection_switches(
              *sta, conn_arcs->connection(i, j), paths[j].switch_count());
        }
      }
      sta->analyze();
      refresh_criticality(iter + 1);
    }
  }

  if (history != nullptr) {
    history->assign(history_, history_ + num_nodes);
  }
  pressure_of_ = nullptr;
  // On convergence the loop broke at index `iter`; otherwise the loop
  // condition already advanced iter to max_iterations.
  result.iterations = converged ? iter + 1 : iter;
  result.converged = converged;
  for (const auto& net : result.nets) {
    for (const auto& path : net.paths) {
      result.switches_crossed += path.switch_count();
      result.wire_nodes_used += path.edges.size();
    }
  }
  return result;
}

void RouterCore::session_begin(const std::vector<RouteNet>& nets,
                               const timing::ContextTimingSpec* timing,
                               const std::vector<RoutedNet>& routed,
                               const std::vector<double>* history_seed,
                               const double* pressure_total,
                               double pressure_scale) {
  const std::size_t num_nodes = graph_.num_nodes();
  MCFPGA_CHECK(scratch_nodes_ == num_nodes,
               "session scratch must be graph-node-sized");
  MCFPGA_CHECK(!session_active_, "session_begin on an armed session");
  MCFPGA_REQUIRE(routed.size() == nets.size(),
                 "adopted routing must parallel the input nets");

  session_active_ = true;
  session_exclusive_ = true;
  session_input_ = &nets;
  pressure_of_ = pressure_total;
  pressure_scale_ = pressure_scale;
  session_nets_ = routed;
  session_result_ = {};
  session_saved_paths_.clear();
  session_saved_tree_.clear();

  std::fill_n(occupancy_, num_nodes, 0);
  if (history_seed != nullptr && history_seed->size() == num_nodes) {
    // The baseline's final history prices wires consistently all session;
    // sessions never write history (exclusion forbids overuse).
    std::copy(history_seed->begin(), history_seed->end(), history_);
  } else {
    std::fill_n(history_, num_nodes, 0.0);
  }
  present_factor_ = 0.5;
  begin_pass(timing);

  // Rebuild each net's tree-node set (source + every path edge target,
  // deduplicated with a tree-epoch mark) and the occupancy/owner maps the
  // exclusive expansion and the dirty-set propagation read.
  session_owner_.assign(num_nodes, -1);
  session_tree_.assign(nets.size(), {});
  for (std::size_t i = 0; i < nets.size(); ++i) {
    std::vector<NodeId>& tree = session_tree_[i];
    tree.push_back(nets[i].source);
    ++tree_epoch_;
    nodes_[static_cast<std::size_t>(nets[i].source)].tree_epoch = tree_epoch_;
    for (const RoutedPath& path : session_nets_[i].paths) {
      for (const EdgeId e : path.edges) {
        const NodeId v = graph_.edge(e).to;
        const std::size_t vi = static_cast<std::size_t>(v);
        if (nodes_[vi].tree_epoch != tree_epoch_) {
          nodes_[vi].tree_epoch = tree_epoch_;
          tree.push_back(v);
        }
      }
    }
    for (const NodeId n : tree) {
      const std::size_t ni = static_cast<std::size_t>(n);
      ++occupancy_[ni];
      if (is_wire_[ni] != 0) {
        session_owner_[ni] = static_cast<std::int32_t>(i);
      }
    }
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    refresh_node_cost(n);
  }

  // Freeze per-connection criticalities from an STA of the ADOPTED switch
  // counts — the post-baseline timing picture orders the merged queue and
  // blends each re-route's expansion cost.  Untimed sessions treat every
  // net as fully critical (ordering falls back to push order).
  session_net_crit_.assign(nets.size(), 1.0);
  session_timing_ = nullptr;
  session_arcs_ = nullptr;
  if (options_.timing_mode && timing != nullptr) {
    MCFPGA_REQUIRE(timing->nets.size() == nets.size(),
                   "timing spec must parallel the context's net list");
    TimingEngine& engine = timing_engine(*timing);
    session_timing_ = timing;
    session_arcs_ = &engine.arcs;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const auto& paths = session_nets_[i].paths;
      MCFPGA_REQUIRE(timing->nets[i].sinks.size() == paths.size(),
                     "timing spec sinks must parallel the adopted paths");
      for (std::size_t j = 0; j < paths.size(); ++j) {
        engine.arcs.set_connection_switches(
            engine.sta, engine.arcs.connection(i, j), paths[j].switch_count());
      }
    }
    engine.sta.analyze();
    const RouterOptions::CriticalityExponentSchedule& s =
        options_.criticality_exponent_schedule;
    const double exponent = std::min(s.max, s.start);
    crit_.assign(engine.arcs.num_connections(), 0.0);
    for (std::size_t i = 0; i < nets.size(); ++i) {
      double net_crit = 0.0;
      for (std::size_t j = 0; j < session_nets_[i].paths.size(); ++j) {
        const std::size_t conn = engine.arcs.connection(i, j);
        double c = engine.arcs.connection_criticality(engine.sta, conn);
        if (exponent != 1.0) {
          c = std::pow(c, exponent);
        }
        c = std::min(c, options_.max_criticality);
        crit_[conn] = c;
        net_crit = std::max(net_crit, c);
      }
      session_net_crit_[i] = net_crit;
    }
  }
}

void RouterCore::session_rip_net(std::size_t i,
                                 std::vector<arch::NodeId>& freed_wires) {
  MCFPGA_CHECK(session_active_, "session_rip_net without session_begin");
  freed_wires.clear();
  session_saved_index_ = i;
  session_saved_paths_ = std::move(session_nets_[i].paths);
  session_saved_tree_ = std::move(session_tree_[i]);
  session_nets_[i].paths.clear();
  session_tree_[i].clear();
  for (const NodeId n : session_saved_tree_) {
    const std::size_t ni = static_cast<std::size_t>(n);
    --occupancy_[ni];
    refresh_node_cost(ni);
    if (is_wire_[ni] != 0) {
      session_owner_[ni] = -1;
      freed_wires.push_back(n);
    }
  }
}

bool RouterCore::session_route_net(std::size_t i,
                                   std::vector<arch::NodeId>& gained_wires) {
  MCFPGA_CHECK(session_active_, "session_route_net without session_begin");
  gained_wires.clear();
  const RouteNet& net = (*session_input_)[i];

  RoutedNet fresh;
  fresh.name = net.name;
  fresh.source = net.source;
  std::vector<NodeId> tree;
  tree.push_back(net.source);
  ++tree_epoch_;
  nodes_[static_cast<std::size_t>(net.source)].tree_epoch = tree_epoch_;
  nodes_[static_cast<std::size_t>(net.source)].depth = 0;

  for (std::size_t j = 0; j < net.sinks.size(); ++j) {
    const NodeId sink = net.sinks[j];
    double cong_scale = 1.0;
    double delay_term = 0.0;
    if (session_arcs_ != nullptr) {
      const double c = crit_[session_arcs_->connection(i, j)];
      cong_scale = 1.0 - c;
      delay_term = c * session_timing_->se_delay;
    }
    if (!expand(tree, sink, cong_scale, delay_term, session_result_)) {
      // Blocked under exclusion (the peer nets hold every remaining
      // corridor).  Nothing was committed; the caller restores the old
      // tree and keeps the baseline routing for this net.
      return false;
    }
    fresh.paths.push_back(trace_path(sink, tree));
  }

  for (const NodeId n : tree) {
    const std::size_t ni = static_cast<std::size_t>(n);
    ++occupancy_[ni];
    refresh_node_cost(ni);
    if (is_wire_[ni] != 0) {
      session_owner_[ni] = static_cast<std::int32_t>(i);
      gained_wires.push_back(n);
    }
  }
  session_nets_[i] = std::move(fresh);
  session_tree_[i] = std::move(tree);
  return true;
}

void RouterCore::session_restore_net(std::size_t i) {
  MCFPGA_CHECK(session_active_ && session_saved_index_ == i,
               "session_restore_net must undo the most recent rip");
  session_nets_[i].paths = std::move(session_saved_paths_);
  session_tree_[i] = std::move(session_saved_tree_);
  session_saved_paths_.clear();
  session_saved_tree_.clear();
  for (const NodeId n : session_tree_[i]) {
    const std::size_t ni = static_cast<std::size_t>(n);
    ++occupancy_[ni];
    refresh_node_cost(ni);
    if (is_wire_[ni] != 0) {
      session_owner_[ni] = static_cast<std::int32_t>(i);
    }
  }
}

void RouterCore::session_refresh_pressure(
    const std::vector<arch::NodeId>& nodes) {
  MCFPGA_CHECK(session_active_, "session_refresh_pressure without a session");
  for (const NodeId n : nodes) {
    refresh_node_cost(static_cast<std::size_t>(n));
  }
}

RouterCore::ContextResult RouterCore::session_finish() {
  MCFPGA_CHECK(session_active_, "session_finish without session_begin");
  ContextResult out = std::move(session_result_);
  session_result_ = {};
  session_active_ = false;
  session_exclusive_ = false;
  session_input_ = nullptr;
  session_timing_ = nullptr;
  session_arcs_ = nullptr;
  pressure_of_ = nullptr;
  pressure_scale_ = 1.0;
  return out;
}

void CorePool::prepare(std::size_t count, const arch::RoutingGraph& graph,
                       const RouterOptions& options) {
  if (slots_.size() < count) {
    slots_.resize(count);
  }
  for (std::size_t s = 0; s < count; ++s) {
    Slot& slot = slots_[s];
    if (!slot.arena) {
      slot.arena = std::make_unique<common::ScratchArena>();
    }
    if (!slot.in_use) {
      slot.in_use = std::make_unique<std::atomic<bool>>(false);
    }
    MCFPGA_CHECK(!slot.in_use->load(std::memory_order_acquire),
                 "prepare would rebuild a checked-out engine");
    if (slot.core && &slot.core->graph() == &graph &&
        slot.core->options() == options) {
      continue;  // warm core, same job shape: reuse as-is
    }
    slot.core.reset();  // release before the ctor resets the arena
    slot.core = std::make_unique<RouterCore>(graph, options, slot.arena.get());
  }
}

RouterCore& CorePool::checkout(std::size_t slot) {
  MCFPGA_CHECK(slot < slots_.size() && slots_[slot].core != nullptr,
               "checkout of an unprepared pool slot");
  MCFPGA_CHECK(!slots_[slot].in_use->exchange(true, std::memory_order_acq_rel),
               "double checkout of a CorePool engine slot");
  return *slots_[slot].core;
}

void CorePool::release(std::size_t slot) {
  MCFPGA_CHECK(slot < slots_.size() && slots_[slot].core != nullptr,
               "release of an unprepared pool slot");
  MCFPGA_CHECK(slots_[slot].in_use->exchange(false, std::memory_order_acq_rel),
               "release of an engine slot that was not checked out");
}

double bucket_quantum_for(const RouterOptions& options,
                          const timing::ContextTimingSpec* timing) {
  if (!options.timing_mode || timing == nullptr) {
    return kMinNodeCost;
  }
  const double c = options.max_criticality;
  return std::min(kMinNodeCost,
                  (1.0 - c) * kMinNodeCost + c * timing->se_delay);
}

RouteResult merge_context_results(
    const arch::RoutingGraph& graph,
    std::vector<RouterCore::ContextResult>&& per_context) {
  const std::size_t num_contexts = per_context.size();
  RouteResult result;
  result.success = true;
  result.nets.resize(num_contexts);
  result.context_summary.resize(num_contexts);
  result.switch_patterns.assign(graph.num_switches(),
                                config::ContextPattern(num_contexts, false));
  for (std::size_t c = 0; c < num_contexts; ++c) {
    RouterCore::ContextResult& ctx = per_context[c];
    result.iterations = std::max(result.iterations, ctx.iterations);
    if (!ctx.converged) {
      result.success = false;
    }
    for (const auto& net : ctx.nets) {
      for (const auto& path : net.paths) {
        for (const EdgeId e : path.edges) {
          result.switch_patterns[static_cast<std::size_t>(graph.edge(e).sw)]
              .set_value(c, true);
        }
      }
    }
    result.context_summary[c].nets = ctx.nets.size();
    result.context_summary[c].wire_nodes_used = ctx.wire_nodes_used;
    result.context_summary[c].switches_crossed = ctx.switches_crossed;
    result.context_summary[c].heap_pushes = ctx.heap_pushes;
    result.context_summary[c].heap_pops = ctx.heap_pops;
    result.context_summary[c].stale_pops = ctx.stale_pops;
    result.context_summary[c].nodes_expanded = ctx.nodes_expanded;
    result.nets[c] = std::move(ctx.nets);
  }
  const std::vector<std::size_t> conflicts =
      cross_context_conflicts(graph, result.nets);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    result.context_summary[c].cross_context_conflicts = conflicts[c];
  }
  return result;
}

}  // namespace mcfpga::route
