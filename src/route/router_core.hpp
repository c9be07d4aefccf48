// Reusable per-context PathFinder engine.
//
// A RouterCore owns all scratch state one context's negotiation needs —
// cost/history/occupancy arrays, the expansion queue, epoch-stamped
// distance/visited marks — preallocated once per routing-graph size and
// reset cheaply between contexts.  Contexts are independent (a physical
// wire carries a different signal in every context), so Router::route can
// run one RouterCore per worker thread and merge the per-context results
// in context order; the merged RouteResult is bit-identical to routing the
// contexts serially.
//
// Hot-path layout: the maze expansion walks the graph's flat CSR arrays
// (RoutingGraph::csr_*) and keeps all per-node expansion state — distance,
// back-pointer, epoch stamps, route-tree depth — in one packed 24-byte
// NodeState record, so one relaxation touches one cache line of node state
// instead of five scattered vectors.  The records (and every other
// graph-sized scratch array) are carved from a common::ScratchArena that a
// worker can keep alive across contexts, passes, interleaved sessions,
// and closure iterations — rebuilding a core on a pooled arena reuses the
// same cache-warm block instead of re-mallocing (see CorePool).  The
// congestion cost is hoisted out of the relaxation loop into a per-node
// cache that is rebuilt once per rip-up iteration and patched on the
// O(tree) occupancy updates, so the inner loop loads exactly one double
// per neighbor; CSR rows are software-prefetched one hop ahead.
//
// Queue engines (RouterOptions::queue_mode):
//   kBinaryHeap — std::push_heap/pop_heap with lazy deletion.  The
//                 default; bit-identical to the historical router.
//   kBucket     — monotone calendar queue over quantized costs
//                 (route/bucket_queue.hpp): O(1) push/pop, FIFO within a
//                 bucket, deterministic for any worker count.  Each pass
//                 sizes its buckets to the smallest relaxation increment
//                 it can produce (bucket_quantum_for), so costs are exact
//                 Dijkstra distances; only tie-breaking among near-equal
//                 costs differs from the heap, so routes may differ but
//                 each expansion still commits a minimum-cost path.
// Both engines count their traffic (heap pushes/pops, stale pops, nodes
// expanded) into ContextResult for the bench scoreboard.
//
// The engine has one per-pass entry point (route_pass): one call is one
// full PathFinder negotiation of one context.  A pass can seed an
// additive per-node PRESSURE into its present cost — the delta recompile
// pins kept trees that way (cache/incremental.cpp); without one the pass
// is bit-identical to the historical monolithic router.  The interleaved
// cross-context post-pass (route/schedule.hpp) drives the session API
// below instead.
//
// Timing-driven mode (RouterOptions::timing_mode + a ContextTimingSpec):
// each context carries its own TimingGraph, re-timed incrementally from
// the current switch counts between rip-up iterations, and every (net,
// sink) connection expands with cost
//   crit * se_delay + (1 - crit) * congestion_cost
// — the classic timing-driven PathFinder blend.  Criticalities start from
// the unit-switch (logic depth) prior, so even iteration 0 prefers short
// detours for deep paths.  Reused route-tree wire is seeded into the
// expansion at its accumulated upstream delay (crit-weighted), so the
// router can trade a longer detour near the source for a shorter critical
// tail instead of treating every branch point as free.  The levelized
// ConnectionArcs/TimingGraph pair is cached per spec (content-signature
// keyed), so closure iterations and interleaved sessions that re-route
// the same context re-time incrementally instead of re-levelizing the
// DAG.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/arena.hpp"
#include "route/bucket_queue.hpp"
#include "route/router.hpp"
#include "timing/net_timing.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::route {

class RouterCore {
 public:
  /// Result of routing one context.
  struct ContextResult {
    std::vector<RoutedNet> nets;
    std::size_t iterations = 0;  ///< PathFinder iterations consumed.
    bool converged = false;      ///< False = congestion never resolved.
    /// Aggregates over all sink connections (feeds ContextStats without a
    /// post-hoc re-scan of every net).
    std::size_t wire_nodes_used = 0;
    std::size_t switches_crossed = 0;
    /// Expansion-engine traffic over the whole pass (every iteration,
    /// net, and sink): queue pushes and pops, pops discarded by the lazy-
    /// deletion stale check, and nodes whose CSR row was actually scanned.
    std::size_t heap_pushes = 0;
    std::size_t heap_pops = 0;
    std::size_t stale_pops = 0;
    std::size_t nodes_expanded = 0;
  };

  /// `arena` (may be null = private arena) provides the graph-sized
  /// scratch storage; constructing a core RESETS it, invalidating any
  /// earlier core built on the same arena.
  RouterCore(const arch::RoutingGraph& graph, const RouterOptions& options,
             common::ScratchArena* arena = nullptr);

  const arch::RoutingGraph& graph() const { return graph_; }
  const RouterOptions& options() const { return options_; }

  /// One negotiation pass over one context's nets — a full PathFinder
  /// rip-up/re-route loop.  Throws FlowError when a net has no physical
  /// path at all; returns converged=false when congestion cannot be
  /// negotiated away within options.max_iterations.  `timing` (may be
  /// null) enables the criticality-driven cost when options.timing_mode is
  /// set; its nets/sinks must parallel `nets`.
  ///
  /// `history` (may be null) carries PathFinder history costs across
  /// passes: when its size matches the graph's node count the negotiation
  /// seeds from it instead of zero, and the final history is written back
  /// either way — the closure loop's cross-iteration carry, and the seed
  /// of the interleaved sessions.
  ///
  /// `pressure` (may be null; graph-node-sized) is an additive present
  /// congestion term per node.  Null is bit-identical to all-zeros.
  ContextResult route_pass(const std::vector<RouteNet>& nets,
                           const timing::ContextTimingSpec* timing,
                           std::vector<double>* history,
                           const std::vector<double>* pressure = nullptr);

  // ---- Interleaved-session API (cross_context_mode == kInterleaved) ----
  //
  // A session adopts one context's CONVERGED routing (the independent
  // baseline) and then rips up and re-routes INDIVIDUAL nets against a
  // live shared pressure array the scheduler owns — commit granularity
  // instead of whole-context passes.  Two properties make
  // net-granular negotiation sound without further PathFinder iterations:
  //   * sessions route EXCLUSIVELY — the expansion never enters a node
  //     another net of this context currently occupies — so intra-context
  //     occupancy can never exceed 1 and no overuse/history step is needed;
  //   * rip and route are SEPARATE calls, so the scheduler can subtract
  //     the ripped net's own usage from the shared pressure before the
  //     re-route (a net must not be repelled by its own old wires).
  // The session never touches history_ after the baseline seed, so the
  // baseline's congestion lessons price wires consistently all session.

  /// Adopts `routed` (parallel to `nets`, the converged baseline) and
  /// arms the session: occupancy/owner maps rebuilt from the trees,
  /// history seeded from `history_seed` (may be null), node costs built
  /// against `pressure_total` (graph-node-sized, scheduler-owned, may be
  /// null) scaled by `pressure_scale`, and per-net criticalities frozen
  /// from an STA of the adopted switch counts (1.0 per net when untimed).
  void session_begin(const std::vector<RouteNet>& nets,
                     const timing::ContextTimingSpec* timing,
                     const std::vector<RoutedNet>& routed,
                     const std::vector<double>* history_seed,
                     const double* pressure_total, double pressure_scale);

  /// Rips net `i` up: occupancy released, owner cleared, node costs
  /// patched.  `freed_wires` receives the WIRE nodes released (the
  /// scheduler's pressure patch set).  The old tree is retained for
  /// session_restore_net until the next rip.
  void session_rip_net(std::size_t i, std::vector<arch::NodeId>& freed_wires);

  /// Re-routes net `i` from scratch under exclusion + live pressure.
  /// On success commits occupancy/owner/node costs and fills
  /// `gained_wires` with the WIRE nodes of the new tree; on failure
  /// (a sink unreachable under exclusion) commits NOTHING and returns
  /// false — the caller restores the old tree.
  bool session_route_net(std::size_t i,
                         std::vector<arch::NodeId>& gained_wires);

  /// Re-commits the tree saved by the last session_rip_net (blocked
  /// re-route): occupancy, owner, and node costs return to their
  /// pre-rip state.
  void session_restore_net(std::size_t i);

  /// Re-derives the cached congestion cost at `nodes` after the scheduler
  /// patched the shared pressure array there (every context's session
  /// shares that array, so every core must be told).
  void session_refresh_pressure(const std::vector<arch::NodeId>& nodes);

  /// The session's current routing (adopted baseline + committed
  /// re-routes), parallel to the input nets.
  const std::vector<RoutedNet>& session_nets() const { return session_nets_; }

  /// Net index currently occupying wire node `node`, or -1.  Well-defined
  /// because sessions route exclusively (intra-context occupancy <= 1).
  std::int32_t session_owner(std::size_t node) const {
    return session_owner_[node];
  }

  /// Frozen criticality of net `i` (max over its connections; 1.0 when
  /// untimed) — the merged queue's priority key ingredient.
  double session_net_criticality(std::size_t i) const {
    return session_net_crit_[i];
  }

  /// Expansion-engine traffic accumulated by the session so far — the
  /// scheduler differences these across a wave for per-wave stats.
  std::size_t session_heap_pushes() const { return session_result_.heap_pushes; }
  std::size_t session_nodes_expanded() const {
    return session_result_.nodes_expanded;
  }

  /// Disarms the session and returns the expansion-engine traffic it
  /// accumulated (nets/iterations/converged are the scheduler's to fill).
  ContextResult session_finish();

 private:
  struct HeapItem {
    double cost;
    arch::NodeId value;
  };

  /// Packed per-node expansion record: everything one relaxation reads or
  /// writes about a node, on one cache line (24 bytes).  Epoch stamps make
  /// per-expansion resets O(touched); `depth` is the switch count from the
  /// net's source to this route-tree node (valid under tree_epoch) — the
  /// upstream delay a timing-driven expansion charges for reused wire.
  struct NodeState {
    double dist;
    arch::EdgeId prev;
    std::uint32_t dist_epoch;
    std::uint32_t tree_epoch;
    std::uint32_t depth;
  };

  /// Binary-heap engine behind the same push/pop interface the bucket
  /// queue exposes, so the expansion template serves both.
  struct BinaryQueue {
    RouterCore& core;
    void clear() { core.heap_.clear(); }
    bool empty() const { return core.heap_.empty(); }
    void push(double cost, arch::NodeId value) { core.heap_push(cost, value); }
    HeapItem pop() { return core.heap_pop(); }
  };

  /// Cached levelized timing engine of one spec.  Keyed by the spec's
  /// address plus a content signature (shape, delays, reader arcs), so a
  /// respawned spec object at the same address with different content can
  /// never alias a stale DAG.
  struct TimingEngine {
    const timing::ContextTimingSpec* spec;
    std::uint64_t signature;
    timing::ConnectionArcs arcs;
    timing::TimingGraph sta;
    TimingEngine(const timing::ContextTimingSpec& s, std::uint64_t sig)
        : spec(&s), signature(sig), arcs(s), sta(s.num_nodes, arcs.arcs()) {}
  };

  void heap_push(double cost, arch::NodeId value);
  HeapItem heap_pop();

  /// Distance of `node` in the current Dijkstra epoch (infinity if
  /// untouched).
  double dist_of(std::size_t node) const;

  /// Recomputes one node's cached congestion cost from its current
  /// occupancy/history/pressure — the exact expression the relaxation
  /// loop used to evaluate inline, so caching is bit-neutral.
  void refresh_node_cost(std::size_t idx);

  /// Seeds the route tree into `queue` and expands until `sink` pops.
  /// Returns false when the sink is unreachable.  Counter traffic lands in
  /// `result`.
  template <typename Queue>
  bool expand_to_sink(Queue& queue, const std::vector<arch::NodeId>& tree,
                      arch::NodeId sink, double cong_scale, double delay_term,
                      ContextResult& result);

  /// expand_to_sink on the engine options_.queue_mode selects.
  bool expand(const std::vector<arch::NodeId>& tree, arch::NodeId sink,
              double cong_scale, double delay_term, ContextResult& result);

  /// Back-traces the expansion that just reached `sink` into a path and
  /// appends the path's new nodes, with their upstream switch depth, to
  /// `tree`.
  RoutedPath trace_path(arch::NodeId sink, std::vector<arch::NodeId>& tree);

  /// Pass-entry scratch reset shared by route_pass and session_begin:
  /// rewinds the epoch stamps long before they could wrap, and sizes the
  /// bucket queue for `timing` (bucket_quantum_for).
  void begin_pass(const timing::ContextTimingSpec* timing);

  /// Returns the cached (or freshly built) timing engine for `spec`,
  /// reset to unit-switch delays and re-analyzed — identical state to a
  /// fresh levelization, without rebuilding the DAG on a cache hit.
  TimingEngine& timing_engine(const timing::ContextTimingSpec& spec);

  const arch::RoutingGraph& graph_;
  RouterOptions options_;

  // Arena-backed graph-sized arrays (see the class comment).  The arena
  // outlives the core when pooled; the core resets it at construction.
  std::unique_ptr<common::ScratchArena> arena_owned_;
  common::ScratchArena* arena_;
  std::size_t scratch_nodes_ = 0;  ///< Node count the scratch was sized for.

  // Graph-shaped constants, precomputed once.
  double* base_cost_ = nullptr;  ///< Per-node occupancy cost.
  std::uint8_t* is_wire_ = nullptr;

  // Negotiation state, reset per pass.
  int* occupancy_ = nullptr;
  double* history_ = nullptr;
  /// Hoisted congestion cost: node_cost_[i] == base_cost_[i] * (1 +
  /// history + present_factor * occupancy [+ pressure]) at all times
  /// during an expansion.  Rebuilt per rip-up iteration, patched on the
  /// O(tree) occupancy updates.
  double* node_cost_ = nullptr;

  // Dijkstra scratch, epoch-stamped so resets are O(touched).
  NodeState* nodes_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::uint32_t tree_epoch_ = 0;

  // Pass-scoped cost inputs captured for refresh_node_cost.  The scale
  // defaults to 1.0 outside sessions, and x * 1.0 is bit-exact for every
  // finite x — so the scaled expression stays bit-identical to the
  // historical one for all non-session passes.
  double present_factor_ = 0.5;
  const double* pressure_of_ = nullptr;
  double pressure_scale_ = 1.0;
  /// Session mode: the expansion skips any node another net of this
  /// context occupies.  False (all non-session passes) is a no-op.
  bool session_exclusive_ = false;

  std::vector<HeapItem> heap_;
  BucketQueue bucket_;

  // Timing caches (see TimingEngine) plus the per-pass criticality buffer.
  std::vector<std::unique_ptr<TimingEngine>> timing_cache_;
  std::vector<double> crit_;

  // Interleaved-session state (see the session_* methods).
  bool session_active_ = false;
  const std::vector<RouteNet>* session_input_ = nullptr;
  const timing::ContextTimingSpec* session_timing_ = nullptr;
  timing::ConnectionArcs* session_arcs_ = nullptr;
  std::vector<RoutedNet> session_nets_;
  std::vector<std::vector<arch::NodeId>> session_tree_;
  std::vector<std::int32_t> session_owner_;
  std::vector<double> session_net_crit_;
  ContextResult session_result_;
  // Single-slot undo state for the rip → route → (restore) protocol.
  std::size_t session_saved_index_ = 0;
  std::vector<RoutedPath> session_saved_paths_;
  std::vector<arch::NodeId> session_saved_tree_;
};

/// Pool of per-worker engine state: one RouterCore per slot, each on its
/// own ScratchArena, kept alive across routing calls so passes, sessions,
/// and closure iterations reuse warm scratch and cached timing DAGs
/// instead of re-mallocing and re-levelizing.  prepare() rebuilds a slot's
/// core only when the graph or options changed (the arena is reused even
/// then).  Slots are interchangeable — any core produces bit-identical
/// results for the same pass inputs — so callers may hand them to workers
/// in any order without perturbing determinism.  Not thread-safe: call
/// prepare() before fanning out, then give each worker its own slot.
/// checkout()/release() harden that hand-out: a checkout marks the slot
/// owned (atomically, so concurrent claimants cannot both win) and a
/// second checkout before release is an MCFPGA_CHECK failure.  The
/// interleaved post-pass checks out one slot per context for as long as
/// that context's session is armed, so a second session on the same slot,
/// or a prepare() that would rebuild the core under it, fails loudly
/// instead of silently clobbering the session's occupancy maps.  core()
/// stays available for single-owner call sites.
class CorePool {
 public:
  void prepare(std::size_t count, const arch::RoutingGraph& graph,
               const RouterOptions& options);
  RouterCore& core(std::size_t slot) { return *slots_[slot].core; }
  std::size_t size() const { return slots_.size(); }

  /// Claims exclusive use of `slot` until release(); throws
  /// ProgrammingError if the slot is already claimed (or out of range).
  RouterCore& checkout(std::size_t slot);
  /// Returns a claimed slot; throws ProgrammingError if it was not
  /// checked out.
  void release(std::size_t slot);

 private:
  struct Slot {
    std::unique_ptr<common::ScratchArena> arena;
    std::unique_ptr<RouterCore> core;
    /// Heap-allocated so Slot stays movable (atomics are not).
    std::unique_ptr<std::atomic<bool>> in_use;
  };
  std::vector<Slot> slots_;
};

/// Bucket width the kBucket engine uses for one pass: the smallest
/// relaxation increment the pass can produce, so every relaxation out of
/// the current bucket lands in a later one and the expansion is exact
/// Dijkstra.  Node costs are at least 0.5 (the pin base cost).  An untimed
/// pass adds exactly the node cost, so the quantum is 0.5; a timing-driven
/// pass (options.timing_mode with a spec) adds
/// (1 - crit) * node_cost + crit * se_delay for crit in
/// [0, max_criticality], which is linear in crit, so its minimum is
/// min(0.5, (1 - max_criticality) * 0.5 + max_criticality * se_delay).
/// At the default delays that is exactly 0.5.
double bucket_quantum_for(const RouterOptions& options,
                          const timing::ContextTimingSpec* timing);

/// Deterministic merge of per-context results into one RouteResult:
/// switch patterns, summaries (including cross_context_conflicts and the
/// expansion-engine counters) and net lists assembled in context order,
/// independent of which worker produced what.  Shared by Router::route's
/// independent path and the interleaved post-pass.
RouteResult merge_context_results(
    const arch::RoutingGraph& graph,
    std::vector<RouterCore::ContextResult>&& per_context);

}  // namespace mcfpga::route
