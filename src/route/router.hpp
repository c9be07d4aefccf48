// PathFinder-style negotiated-congestion router over the fabric's
// routing-resource graph (paper Sec. 3).
//
// Each context is routed independently — a physical wire can carry a
// different signal in every context, which is exactly what gives the
// per-switch context patterns their structure.  Within a context the
// classic PathFinder loop applies: rip-up and reroute every net with
// node costs inflated by present congestion and accumulated history until
// no wire is shared.
//
// The per-context engine lives in route/router_core.hpp (RouterCore, with
// preallocated scratch over the graph's flat CSR adjacency); Router::route
// fans contexts out over a small worker pool and merges results in context
// order, so parallel output is bit-identical to serial.
//
// Contexts are NOT independent in the cost model, though: every physical
// switch carries one on/off bit per context, and the RCM decoder prices a
// switch by how its pattern varies across contexts.  With
// RouterOptions::cross_context_mode == kInterleaved, Router::route hands
// the independent routing to a post-pass (route/schedule.hpp) that rips
// and re-routes single nets, drained one at a time from one merged
// criticality queue, against per-node pressure exchanged between contexts
// until cross-context wire conflicts stop improving.  kOff (the default)
// returns the independent routing as is.
//
// Delay accounting follows the paper's SE model: every switch crossed
// costs one SE delay, so a straight run of L cells costs L switches on
// single-length wires but only ceil(L/2) diamond crossings on
// double-length lines (Fig. 10) — the router's base costs make the fast
// lines attractive for long connections, and `prefer_double_length`
// lets benches toggle the feature for the E5 comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/routing_graph.hpp"
#include "config/bitstream.hpp"
#include "config/pattern.hpp"
#include "timing/net_timing.hpp"

namespace mcfpga::route {

class CorePool;  // per-worker engine pool (route/router_core.hpp)

struct RouteNet {
  std::string name;
  arch::NodeId source = arch::kInvalidNode;
  std::vector<arch::NodeId> sinks;
};

struct RoutedPath {
  arch::NodeId sink = arch::kInvalidNode;
  /// Edges from the net's routed tree to this sink, source-to-sink order.
  std::vector<arch::EdgeId> edges;
  /// Switches crossed = edges.size(); the SE-delay of this connection.
  std::size_t switch_count() const { return edges.size(); }
  /// Switches crossed inside diamond switches (double-length usage marker).
  std::size_t diamond_count = 0;
};

struct RoutedNet {
  std::string name;
  arch::NodeId source = arch::kInvalidNode;
  std::vector<RoutedPath> paths;
};

/// Priority-queue engine behind the maze expansion (router_core.hpp).
enum class QueueMode : std::uint8_t {
  /// std::push_heap/pop_heap with lazy deletion — the historical engine,
  /// bit-identical to every pre-option release.
  kBinaryHeap,
  /// Monotone calendar queue over quantized costs (route/bucket_queue.hpp):
  /// O(1) push/pop, FIFO within a bucket, deterministic for any worker
  /// count.  The bucket width is derived from the smallest relaxation
  /// increment, so the expansion is exact Dijkstra; routes may differ from
  /// the heap's only through equal-cost tie-breaks.
  kBucket,
};

/// How the router treats the coupling between contexts.
enum class CrossContextMode : std::uint8_t {
  /// Every context routed independently (the historical behavior).
  kOff,
  /// Independent routing, then one merged net-level worklist over it
  /// (route/schedule.hpp): (context, net) entries are popped from a single
  /// criticality-ordered calendar queue, ripped up and re-routed one net
  /// at a time against live cross-context pressure updated at commit
  /// granularity, and only nets whose pressure actually changed are
  /// re-enqueued (dirty-set propagation).  Deterministic for a fixed seed
  /// regardless of worker count; never worse than kOff on the kept metric
  /// (the independent routing is the first scored state and the best
  /// state wins).
  kInterleaved,
};

struct RouterOptions {
  std::size_t max_iterations = 40;
  /// Multiplier on present congestion added per iteration.
  double present_factor_growth = 1.6;
  double history_increment = 1.0;
  /// When false, double-length wires are priced off the table (E5 ablation).
  bool prefer_double_length = true;
  /// Worker threads for per-context routing.  0 = one per hardware thread
  /// (capped at the context count); 1 = serial.  Results are bit-identical
  /// regardless of the value: contexts are independent and merged in
  /// context order.
  std::size_t num_threads = 0;
  /// Timing-driven negotiation: expansion cost becomes
  ///   crit * se_delay + (1 - crit) * congestion_cost
  /// per node entered, with per-connection criticalities refreshed from an
  /// incremental STA between rip-up iterations.  Requires timing specs to
  /// be passed to Router::route; off = bit-identical to the pure
  /// congestion router.
  bool timing_mode = false;
  /// VPR-style criticality-exponent ramp: rip-up iteration k sharpens
  /// criticalities with crit^min(max, start + k * step).  The default
  /// (1, 0, 1) keeps criticalities linear for the whole negotiation; a
  /// rising schedule lets early iterations spread congestion while late
  /// iterations chase the critical path hard.
  struct CriticalityExponentSchedule {
    double start = 1.0;  ///< Exponent at rip-up iteration 0.
    double step = 0.0;   ///< Added per rip-up iteration.
    double max = 1.0;    ///< Ceiling of the ramp (>= start).
    bool operator==(const CriticalityExponentSchedule&) const = default;
  };
  CriticalityExponentSchedule criticality_exponent_schedule{};
  /// Criticality ceiling, keeping a sliver of congestion pressure on even
  /// the most critical connection so negotiation still converges.
  double max_criticality = 0.99;
  /// Cross-context coupling: kOff = independent contexts (bit-identical
  /// to the historical router); kInterleaved re-routes contested nets
  /// by criticality with shared congestion pressure (route/schedule.hpp,
  /// whose wave and pressure settings are constants).
  CrossContextMode cross_context_mode = CrossContextMode::kOff;
  /// Maze-expansion priority queue engine (see QueueMode).  kBucket derives
  /// its bucket width per pass from the smallest relaxation increment
  /// (route::bucket_quantum_for), so it stays exact Dijkstra for any
  /// non-negative SE delay.
  QueueMode queue_mode = QueueMode::kBinaryHeap;

  /// Member-wise equality: lets engine pools detect that cached per-worker
  /// state was built for the same job shape and reuse it.
  bool operator==(const RouterOptions&) const = default;

  /// Throws InvalidArgument on out-of-range values (zero iteration budget,
  /// negative increments/weights, ...).  Called by Router's constructor.
  void validate() const;
};

/// Cross-call router state: one PathFinder history-cost array per context,
/// indexed by routing-graph node.  The timing-closure loop routes the same
/// contexts repeatedly (placements shift between iterations); carrying the
/// history forward lets later iterations start negotiation with the
/// congestion lessons of earlier ones instead of from scratch.
struct RouteHistory {
  std::vector<std::vector<double>> per_context;

  /// Sizes per_context to `num_contexts` and CLEARS any entry whose length
  /// does not match `num_nodes` — a history recorded on a different
  /// routing graph is stale, and seeding from it would silently misprice
  /// every node.  Router::route calls this on entry, so repeated closure
  /// iterations (or a reused history across differently sized fabrics)
  /// never grow or alias stale per-node state.
  void prepare(std::size_t num_contexts, std::size_t num_nodes);
};

/// Per-context aggregates collected while committing routed paths, so
/// downstream stats never re-scan every net.
struct ContextRouteSummary {
  std::size_t nets = 0;
  std::size_t wire_nodes_used = 0;
  std::size_t switches_crossed = 0;  ///< Sum over all sink connections.
  /// Wire nodes this context uses that at least one other context also
  /// uses — the raw material of non-constant switch patterns (and of the
  /// cross-context detour pressure the interleaved post-pass relieves).
  std::size_t cross_context_conflicts = 0;
  /// Maze-expansion engine traffic over the context's whole negotiation
  /// (every rip-up iteration, net, and sink): queue pushes and pops, pops
  /// discarded by the lazy-deletion stale check, and nodes whose CSR row
  /// was actually scanned.  The push/pop mix is the scoreboard the
  /// binary-heap-vs-bucket benches compare.
  std::size_t heap_pushes = 0;
  std::size_t heap_pops = 0;
  std::size_t stale_pops = 0;
  std::size_t nodes_expanded = 0;
  /// kInterleaved only: nets of this context ripped up and re-routed by
  /// the merged worklist (0 in kOff mode, and for a baseline that was
  /// already conflict-free).
  std::size_t interleave_reroutes = 0;
  /// kInterleaved only: (net) entries of this context pushed back onto the
  /// merged queue because a peer's commit changed their pressure.
  std::size_t interleave_requeues = 0;
};

/// One scored state of the kInterleaved post-pass (route/schedule.hpp):
/// entry 0 is the independent baseline, every later entry one WAVE of the
/// merged worklist.
struct NegotiationRoundStats {
  std::size_t round = 0;
  /// Sum of per-context cross_context_conflicts after this entry.
  std::size_t conflicts = 0;
  /// Worst per-connection switch count over all contexts.
  std::size_t worst_critical_switches = 0;
  /// Worst per-context STA critical path (0 when routed without specs).
  double worst_critical_path = 0.0;
  /// Wall clock of the entry; the baseline's includes routing it.
  double seconds = 0.0;
  /// True on the single entry whose routing the post-pass returned.
  bool kept = false;
  /// Nets actually ripped + re-routed in this wave (0 for the baseline).
  std::size_t nets_rerouted = 0;
  /// Nets enqueued for the NEXT wave because a commit in this wave
  /// changed their pressure.  Consistency invariant (tested):
  /// wave k's nets_rerouted never exceeds wave k-1's nets_requeued.
  std::size_t nets_requeued = 0;
  /// Maze-expansion traffic the entry actually spent, summed over
  /// contexts (the baseline's full passes; wave entries count only the
  /// ripped nets' re-routes).  Summing these over every entry gives the
  /// post-pass's TOTAL cost; the kept-entry counters in
  /// ContextRouteSummary deliberately do not.
  std::size_t heap_pushes = 0;
  std::size_t nodes_expanded = 0;
  /// Always 0: the speculative drain is gone, perfbench still reads these.
  std::size_t spec_hits = 0;
  std::size_t spec_aborts = 0;
};

struct RouteResult {
  bool success = false;
  std::size_t iterations = 0;
  /// nets[context][i] corresponds to the input nets of that context.
  std::vector<std::vector<RoutedNet>> nets;
  /// Per-switch on/off pattern across contexts (indexed by SwitchId).
  std::vector<config::ContextPattern> switch_patterns;
  /// One summary per context, filled during the routing commit.
  std::vector<ContextRouteSummary> context_summary;
  /// The baseline plus one entry per interleaved wave (empty in kOff
  /// mode).
  std::vector<NegotiationRoundStats> negotiation_stats;

  /// Worst switch count over all sink connections of one context.
  std::size_t critical_switches(std::size_t context) const;
  /// Full-fabric routing bitstream: one row per physical switch (including
  /// the never-used, constant-0 ones — they exist in silicon and dominate
  /// the pattern census).
  config::Bitstream to_bitstream(const arch::RoutingGraph& graph) const;
};

class Router {
 public:
  /// Validates `options` (InvalidArgument on bad values).
  Router(const arch::RoutingGraph& graph, RouterOptions options = {});

  /// Routes all contexts; nets_per_context.size() must equal the fabric's
  /// context count.  Throws FlowError when a net is unroutable outright
  /// (no physical path); returns success=false when congestion cannot be
  /// resolved within max_iterations.
  ///
  /// `timing` (one spec per context, parallel to the net lists) enables the
  /// timing-driven cost when options.timing_mode is set; contexts remain
  /// independent, so parallel results stay bit-identical to serial.
  ///
  /// `history` (may be null) carries PathFinder history costs across calls:
  /// it is prepare()d against this graph first (stale-sized entries are
  /// cleared), a context whose entry matches the graph's node count seeds
  /// its negotiation from it, and every context writes its final history
  /// back.  Seeding and write-back are per-context, so parallel results
  /// remain bit-identical to serial.  Under kInterleaved the write-back is
  /// the independent baseline's history: the post-pass never writes it.
  ///
  /// `context_criticality` (may be null; one value in [0, 1] per context)
  /// drives the post-pass's queue order and pressure weights when
  /// options.cross_context_mode == kInterleaved — the closure loop passes
  /// each context's critical path as a fraction of the worst context's,
  /// from the previous iteration's STA (1 - slack/budget under the
  /// shared budget).  Null = every context equally critical.  Ignored in
  /// kOff mode.
  ///
  /// `pool` (may be null = per-call engines) supplies per-worker
  /// RouterCores whose arena scratch and cached timing DAGs persist
  /// across calls — the closure loop routes every iteration, so reuse
  /// removes the per-call allocate-and-levelize tax.  Pooled and
  /// pool-free results are bit-identical.
  RouteResult route(const std::vector<std::vector<RouteNet>>& nets_per_context,
                    const std::vector<timing::ContextTimingSpec>* timing =
                        nullptr,
                    RouteHistory* history = nullptr,
                    const std::vector<double>* context_criticality = nullptr,
                    CorePool* pool = nullptr) const;

 private:
  const arch::RoutingGraph& graph_;
  RouterOptions options_;
};

/// Per-context count of wire nodes shared with at least one other context
/// (the ContextRouteSummary::cross_context_conflicts values), from
/// per-context usage bitmaps (usage[c][n] != 0 = context c occupies wire
/// node n).  The ONE definition of a cross-context conflict — every other
/// counter delegates here.
std::vector<std::size_t> cross_context_conflicts(
    const std::vector<std::vector<std::uint8_t>>& usage);

/// One context's usage bitmap from its routed trees: 1 where a path
/// enters a WIRE node.  Pins and pads are context-local endpoints, not
/// shared fabric, so they never count.
std::vector<std::uint8_t> wire_usage(const arch::RoutingGraph& graph,
                                     const std::vector<RoutedNet>& nets);

/// Same as above, computed from routed trees (wire_usage per context,
/// then delegates).
std::vector<std::size_t> cross_context_conflicts(
    const arch::RoutingGraph& graph,
    const std::vector<std::vector<RoutedNet>>& nets_per_context);

}  // namespace mcfpga::route
