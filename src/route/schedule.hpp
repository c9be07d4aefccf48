// Cross-context negotiated routing: criticality-ordered context
// scheduling with shared congestion pressure.
//
// The whole point of the multi-context fabric is that one physical wire
// carries a DIFFERENT signal in every context — but the switch patterns
// those signals program are shared silicon, and a wire hogged by an
// uncritical net in context A is exactly the wire a critical net in
// context B wanted.  Independent per-context routing cannot see that
// coupling.  The ContextScheduler makes it explicit:
//
//   round 0  INDEPENDENT BASELINE.  Every context routes with zero
//            cross-context pressure, in parallel — bit-identical to
//            CrossContextMode::kOff.  This round anchors the keep-best
//            guarantee: negotiation can only ever improve on it.
//   round 1  CLAIM PASS.  Contexts route SEQUENTIALLY in descending
//            criticality order (handed in by the caller — the closure
//            loop passes each context's critical-path share of the
//            worst context's, from the previous iteration's STA; ties
//            break toward the lower context index).  The most critical context claims wires
//            pressure-free; each later context routes against the
//            pressure of every context already re-routed this round —
//            critical contexts claim first, uncritical ones detour.
//   round 2+ NEGOTIATION.  Every context re-routes in parallel against
//            the frozen pressure of ALL peers from the previous round
//            (Jacobi-style), with its own PathFinder history carried
//            across rounds.  Pressure folds each exporting context's
//            per-node wire usage into the importer's present cost,
//            weighted by the EXPORTER's criticality and a fixed pressure
//            weight of 0.5.
//
// The loop stops when cross-context conflicts (wire nodes shared between
// contexts) stop strictly improving, or after 3 negotiation rounds.
// Every round is scored — worst per-context STA critical path when timing
// specs are available, worst per-connection switch count otherwise, with
// total conflicts as the tiebreak — and the best round's routing (and
// history) is what the scheduler returns, so negotiated routing is never
// worse than independent routing on the kept metric.
//
// Determinism: rounds are barriers; within a round each context sees only
// pressure frozen before the round started (round 1 is sequential by
// construction), and per-round usage merges in context order — so the
// result is a pure function of (options, nets, criticalities, history),
// regardless of worker count.
//
// CrossContextMode::kInterleaved replaces the rounds AFTER the shared
// round-0 baseline with one merged net-level worklist:
//
//   arm      One RouterCore SESSION per context adopts its baseline
//            routing; all sessions share one live pressure array
//            total[n] = sum_c crit_c * usage_c[n] (scaled by the same 0.5
//            pressure weight).
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
// Each wave is scored like a negotiation round and the best state is
// kept, so kInterleaved inherits the never-worse-than-independent
// guarantee.  The queue drains one net at a time on the calling thread,
// in pop order, a pure function of pushes; only the round-0 baseline runs
// on num_threads workers, so the result is deterministic for any worker
// count.  Cost tracks actual conflict churn (nets re-routed per wave)
// instead of rounds x contexts x nets.
//
// The round, wave, pressure and priority-bucket settings above are named
// constants in schedule.cpp rather than RouterOptions, because every
// caller ran them at these values.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/routing_graph.hpp"
#include "route/router.hpp"
#include "timing/net_timing.hpp"

namespace mcfpga::route {

class ContextScheduler {
 public:
  /// `options` must already be validated (Router's constructor does).
  ContextScheduler(const arch::RoutingGraph& graph,
                   const RouterOptions& options);

  /// Routes all contexts under cross-context negotiation.  Arguments
  /// mirror Router::route (which dispatches here when
  /// options.cross_context_mode != kOff): `timing` additionally
  /// powers the per-round STA scoring, `history` must already be
  /// prepare()d against this graph, and `context_criticality` (null =
  /// all contexts equally critical) orders the claim pass and scales the
  /// pressure each context exports.  `pool` (may be null = a round-local
  /// pool) carries per-worker engines across rounds and calls; pooled
  /// results are bit-identical to pool-free ones.
  RouteResult route(const std::vector<std::vector<RouteNet>>& nets_per_context,
                    const std::vector<timing::ContextTimingSpec>* timing,
                    RouteHistory* history,
                    const std::vector<double>* context_criticality,
                    CorePool* pool = nullptr) const;

 private:
  const arch::RoutingGraph& graph_;
  RouterOptions options_;  ///< By value, like RouterCore: no lifetime trap.
};

}  // namespace mcfpga::route
