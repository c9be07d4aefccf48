// Cross-context interleaved routing: a post-pass over independent routing
// that re-routes contested nets against shared congestion pressure.
//
// The whole point of the multi-context fabric is that one physical wire
// carries a DIFFERENT signal in every context — but the switch patterns
// those signals program are shared silicon, and a wire hogged by an
// uncritical net in context A is exactly the wire a critical net in
// context B wanted.  Independent per-context routing cannot see that
// coupling.  Under CrossContextMode::kInterleaved, Router::route first
// routes every context independently (in parallel, bit-identical to kOff)
// and then hands that baseline to interleave_contexts, which makes the
// coupling explicit with one merged net-level worklist:
//
//   score    The baseline is scored as entry 0.  It anchors the keep-best
//            guarantee: the post-pass can only ever improve on it.
//   arm      One RouterCore SESSION per context adopts its baseline
//            routing; all sessions share one live pressure array
//            total[n] = sum_c crit_c * usage_c[n], scaled by a fixed
//            pressure weight of 0.5 and weighted by the EXPORTING
//            context's criticality — critical contexts push hard,
//            uncritical ones barely.
//   wave 1   Every net holding a contested wire (>= 2 contexts) enters a
//            single calendar queue keyed by 1 - ctx_crit * net_crit —
//            critical nets pop first, FIFO within a priority bucket of
//            width 1/64.
//   pop      Rip ONE net, patch the shared pressure down at its freed
//            wires, re-route it exclusively (never through a wire a peer
//            net of the SAME context holds) against live peer pressure,
//            patch pressure up at the gained wires.  A blocked re-route
//            restores the baseline tree (never-worse per net).
//   dirty    Only peers holding a wire the commit GAINED are re-enqueued
//            — into the NEXT wave's queue (ping-pong, so the draining
//            queue's monotone cursor is never fought).  Waves end when
//            the dirty set dries up or after 8 waves.
//
// Every entry is scored — worst per-context STA critical path when timing
// specs are available, worst per-connection switch count otherwise, with
// total conflicts as the tiebreak — and the best entry's routing is what
// the post-pass returns, so interleaved routing is never worse than
// independent routing on the kept metric.  Cost tracks actual conflict
// churn (nets re-routed per wave) instead of rounds x contexts x nets.
//
// Determinism: the queue drains one net at a time on the calling thread,
// in pop order, a pure function of pushes; only the baseline runs on
// num_threads workers, and it is bit-identical for any worker count — so
// the result is a pure function of (options, nets, criticalities,
// history), regardless of worker count.
//
// The wave, pressure and priority-bucket settings above are named
// constants in schedule.cpp rather than RouterOptions, because every
// caller ran them at these values.
#pragma once

#include <chrono>
#include <vector>

#include "arch/routing_graph.hpp"
#include "route/router.hpp"
#include "route/router_core.hpp"
#include "timing/net_timing.hpp"

namespace mcfpga::route {

/// Runs the interleaved post-pass over `baseline`, the independent
/// routing Router::route just produced (one result per context, in context
/// order), and returns the best scored state, merged.  The other arguments
/// are Router::route's: `timing` (may be null) additionally powers the
/// per-entry STA scoring, `history` holds the baseline's final PathFinder
/// history (it seeds the sessions, which never write it), and
/// `context_criticality` (null = all contexts equally critical) orders the
/// queue and scales the pressure each context exports.  `cores` must
/// already be prepare()d with at least one slot per context; slot c hosts
/// context c's session.  `baseline_start` is when the baseline routing
/// began, so entry 0's seconds cover it.
RouteResult interleave_contexts(
    const arch::RoutingGraph& graph,
    const std::vector<std::vector<RouteNet>>& nets_per_context,
    const std::vector<timing::ContextTimingSpec>* timing,
    const RouteHistory& history,
    const std::vector<double>* context_criticality, CorePool& cores,
    std::vector<RouterCore::ContextResult> baseline,
    std::chrono::steady_clock::time_point baseline_start);

}  // namespace mcfpga::route
