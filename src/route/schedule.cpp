#include "route/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "route/bucket_queue.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::route {

namespace {

/// Scale of foreign-context wire usage folded into a context's present
/// congestion cost, further weighted by the EXPORTING context's
/// criticality — critical contexts push hard, uncritical ones barely.
constexpr double kCrossContextPressureWeight = 0.5;

/// Cap on re-route waves after the baseline.  The dirty set usually dries
/// up well before it.
constexpr std::size_t kInterleaveWaves = 8;

/// Bucket width of the merged queue's priority key 1 - ctx_crit *
/// net_crit.  Nets whose keys share a bucket pop FIFO, which keeps the
/// wave order a pure function of push order.
constexpr double kInterleaveCritQuantum = 1.0 / 64.0;

/// Entry quality, compared lexicographically: first the timing metric
/// (worst per-context STA critical path when specs are available, worst
/// per-connection switch count otherwise), then total cross-context
/// conflicts.  Ties keep the earlier entry.
struct Score {
  double primary = 0.0;
  std::size_t conflicts = 0;

  Score(const NegotiationRoundStats& s, bool by_sta)
      : primary(by_sta ? s.worst_critical_path
                       : static_cast<double>(s.worst_critical_switches)),
        conflicts(s.conflicts) {}

  bool better_than(const Score& o) const {
    if (primary != o.primary) {
      return primary < o.primary;
    }
    return conflicts < o.conflicts;
  }
};

/// Scores one state — the baseline, or the sessions' live routing after a
/// wave — into a stats row: total cross-context conflicts from `usage`,
/// the worst per-connection switch count and, when `sta` is non-empty, the
/// worst per-context STA critical path.  The DAG topology is fixed across
/// entries, so each context's TimingGraph re-analyzes incrementally.  The
/// caller fills in the round, the work counters and the seconds.
NegotiationRoundStats score_state(
    const std::vector<const std::vector<RoutedNet>*>& nets,
    const std::vector<std::vector<std::uint8_t>>& usage,
    std::vector<timing::ConnectionArcs>& arcs,
    std::vector<timing::TimingGraph>& sta) {
  NegotiationRoundStats s;
  for (const std::size_t per_context : cross_context_conflicts(usage)) {
    s.conflicts += per_context;
  }
  for (std::size_t c = 0; c < nets.size(); ++c) {
    for (std::size_t i = 0; i < nets[c]->size(); ++i) {
      const std::vector<RoutedPath>& paths = (*nets[c])[i].paths;
      for (std::size_t j = 0; j < paths.size(); ++j) {
        s.worst_critical_switches =
            std::max(s.worst_critical_switches, paths[j].switch_count());
        if (!sta.empty()) {
          arcs[c].set_connection_switches(sta[c], arcs[c].connection(i, j),
                                          paths[j].switch_count());
        }
      }
    }
    if (!sta.empty()) {
      sta[c].analyze();
      s.worst_critical_path =
          std::max(s.worst_critical_path, sta[c].critical_path());
    }
  }
  return s;
}

}  // namespace

RouteResult interleave_contexts(
    const arch::RoutingGraph& graph,
    const std::vector<std::vector<RouteNet>>& nets_per_context,
    const std::vector<timing::ContextTimingSpec>* timing,
    const RouteHistory& history,
    const std::vector<double>* context_criticality, CorePool& cores,
    std::vector<RouterCore::ContextResult> baseline,
    std::chrono::steady_clock::time_point baseline_start) {
  using clock = std::chrono::steady_clock;
  const std::size_t num_contexts = nets_per_context.size();
  const std::size_t num_nodes = graph.num_nodes();

  // Per-context criticalities in [0, 1]; null = all equally critical, so
  // every context exports full-strength pressure.
  std::vector<double> crit(num_contexts, 1.0);
  if (context_criticality != nullptr) {
    for (std::size_t c = 0; c < num_contexts; ++c) {
      crit[c] = std::clamp((*context_criticality)[c], 0.0, 1.0);
    }
  }

  // Per-entry STA scoring state (specs available => exact critical paths;
  // otherwise entries are scored by worst switch count).
  const bool score_by_sta = timing != nullptr;
  std::vector<timing::ConnectionArcs> arcs;
  std::vector<timing::TimingGraph> sta;
  if (score_by_sta) {
    arcs.reserve(num_contexts);
    sta.reserve(num_contexts);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      const timing::ContextTimingSpec& spec = (*timing)[c];
      MCFPGA_REQUIRE(spec.nets.size() == nets_per_context[c].size(),
                     "timing spec must parallel the context's net list");
      for (std::size_t i = 0; i < spec.nets.size(); ++i) {
        MCFPGA_REQUIRE(
            spec.nets[i].sinks.size() == nets_per_context[c][i].sinks.size(),
            "timing spec sinks must parallel the net's sinks");
      }
      arcs.emplace_back(spec);
      sta.emplace_back(spec.num_nodes, arcs.back().arcs());
    }
  }

  // --- Entry 0: the independent baseline -----------------------------------
  // The wire usage each context exports, derived from its baseline trees
  // and patched as the waves commit.
  std::vector<std::vector<std::uint8_t>> usage(num_contexts);
  std::vector<const std::vector<RoutedNet>*> baseline_nets(num_contexts);
  bool all_converged = true;
  for (std::size_t c = 0; c < num_contexts; ++c) {
    usage[c] = wire_usage(graph, baseline[c].nets);
    baseline_nets[c] = &baseline[c].nets;
    all_converged = all_converged && baseline[c].converged;
  }
  std::vector<NegotiationRoundStats> stats;
  stats.push_back(score_state(baseline_nets, usage, arcs, sta));
  for (const RouterCore::ContextResult& r : baseline) {
    stats[0].heap_pushes += r.heap_pushes;
    stats[0].nodes_expanded += r.nodes_expanded;
  }
  stats[0].seconds =
      std::chrono::duration<double>(clock::now() - baseline_start).count();
  // `baseline` doubles as the best state seen; waves overwrite its net
  // lists when they beat it.
  Score best_score(stats[0], score_by_sta);
  std::size_t best_round = 0;

  // Per-context churn counters, folded into the merged summaries at the
  // tail.
  std::vector<std::size_t> interleave_reroutes(num_contexts, 0);
  std::vector<std::size_t> interleave_requeues(num_contexts, 0);

  // --- Net-interleaved negotiation: one merged worklist ----------------------
  //
  // Arm one live SESSION per context (each adopts its baseline routing)
  // and drive a single merged (context, net) queue ordered by criticality.
  // Each pop rips ONE net, patches the shared pressure, and re-routes it
  // against the LIVE pressure of everyone else — commit granularity
  // instead of whole-context rounds — then re-enqueues only the nets whose
  // pressure the commit actually changed (dirty-set propagation).  The
  // queue pops FIFO within a priority bucket, so pop order is a pure
  // function of push order.
  //
  // Negotiation only makes sense over a converged baseline with something
  // to negotiate about; pressure never helps a context that could not
  // even resolve its own congestion (it only adds cost).
  if (all_converged && stats[0].conflicts > 0) {
    // All sessions share ONE unscaled pressure array
    //   total[n] = sum_c crit[c] * usage[c][n]
    // (each core scales it by the pressure weight).  `users[n]` counts the
    // contexts holding wire n — the conflict predicate.
    std::vector<double> total(num_nodes, 0.0);
    std::vector<std::uint16_t> users(num_nodes, 0);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      for (std::size_t n = 0; n < num_nodes; ++n) {
        if (usage[c][n] != 0) {
          total[n] += crit[c];
          ++users[n];
        }
      }
    }
    // Sessions seed from the baseline's final history and never write it
    // (exclusive routing cannot overuse), so the history the baseline
    // wrote back stays the caller's carry-out whichever entry wins.
    std::vector<const std::vector<RoutedNet>*> session_nets(num_contexts);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      RouterCore& core = cores.checkout(c);
      core.session_begin(nets_per_context[c],
                         timing ? &(*timing)[c] : nullptr, baseline[c].nets,
                         &history.per_context[c], total.data(),
                         kCrossContextPressureWeight);
      session_nets[c] = &core.session_nets();
    }

    // Re-derives total[] at the patched nodes from the usage columns
    // (exact, no float drift from repeated add/subtract) and tells every
    // session the pressure there changed.
    const auto patch = [&](const std::vector<arch::NodeId>& nodes,
                           std::size_t c, bool add) {
      for (const arch::NodeId n : nodes) {
        const std::size_t ni = static_cast<std::size_t>(n);
        usage[c][ni] = add ? 1 : 0;
        users[ni] = static_cast<std::uint16_t>(users[ni] + (add ? 1 : -1));
        double t = 0.0;
        for (std::size_t c2 = 0; c2 < num_contexts; ++c2) {
          if (usage[c2][ni] != 0) {
            t += crit[c2];
          }
        }
        total[ni] = t;
      }
      for (std::size_t c2 = 0; c2 < num_contexts; ++c2) {
        cores.core(c2).session_refresh_pressure(nodes);
      }
    };

    // The merged worklist: a calendar queue keyed by
    // 1 - ctx_crit * net_crit (critical nets pop first), FIFO within a
    // bucket.  Two queues ping-pong: wave w drains one while dirty-set
    // requeues fill the other — pushing into the draining queue would
    // fight its monotone cursor and make pop order depend on drain
    // progress.
    const auto pack = [](std::size_t c, std::size_t i) {
      return (static_cast<std::uint64_t>(c) << 32) |
             static_cast<std::uint64_t>(i);
    };
    const auto key_of = [&](std::size_t c, std::size_t i) {
      return 1.0 - std::clamp(
                       crit[c] * cores.core(c).session_net_criticality(i),
                       0.0, 1.0);
    };
    const std::size_t span =
        static_cast<std::size_t>(1.0 / kInterleaveCritQuantum) + 2;
    CalendarQueue<std::uint64_t> queues[2];
    queues[0].configure(kInterleaveCritQuantum, span);
    queues[1].configure(kInterleaveCritQuantum, span);

    // wave_mark[c][i] == w: net (c, i) is already enqueued for wave w.
    std::vector<std::vector<std::size_t>> wave_mark(num_contexts);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      wave_mark[c].assign(nets_per_context[c].size(), 0);
    }
    // Wave-1 seeds: every net currently holding a contested wire, in
    // (context, net) order — the queue's buckets re-order them by
    // criticality.
    for (std::size_t c = 0; c < num_contexts; ++c) {
      const std::vector<RoutedNet>& nets = *session_nets[c];
      for (std::size_t i = 0; i < nets.size(); ++i) {
        bool contested = false;
        for (const RoutedPath& path : nets[i].paths) {
          for (const arch::EdgeId e : path.edges) {
            const arch::NodeId to = graph.edge(e).to;
            if (graph.node(to).kind == arch::NodeKind::kWire &&
                users[static_cast<std::size_t>(to)] >= 2) {
              contested = true;
              break;
            }
          }
          if (contested) {
            break;
          }
        }
        if (contested) {
          wave_mark[c][i] = 1;
          queues[0].push(key_of(c, i), pack(c, i));
        }
      }
    }

    std::vector<arch::NodeId> freed;
    std::vector<arch::NodeId> gained;
    std::size_t active = 0;
    for (std::size_t wave = 1; wave <= kInterleaveWaves; ++wave) {
      CalendarQueue<std::uint64_t>& work = queues[active];
      CalendarQueue<std::uint64_t>& next = queues[1 - active];
      if (work.empty()) {
        break;  // the dirty set dried up: nothing left to negotiate
      }
      const clock::time_point start = clock::now();
      std::size_t rerouted = 0;
      std::size_t requeued = 0;
      std::size_t pushes_before = 0;
      std::size_t expanded_before = 0;
      for (std::size_t c = 0; c < num_contexts; ++c) {
        pushes_before += cores.core(c).session_heap_pushes();
        expanded_before += cores.core(c).session_nodes_expanded();
      }
      while (!work.empty()) {
        const auto item = work.pop();
        const std::size_t c = static_cast<std::size_t>(item.value >> 32);
        const std::size_t i =
            static_cast<std::size_t>(item.value & 0xffffffffu);
        RouterCore& core = cores.core(c);
        // Rip FIRST and patch the shared pressure down, so the re-route is
        // not repelled by the net's own old wires.
        core.session_rip_net(i, freed);
        patch(freed, c, false);
        if (!core.session_route_net(i, gained)) {
          // Blocked under exclusion: keep the baseline route for this net
          // (never-worse), put its pressure back.
          core.session_restore_net(i);
          patch(freed, c, true);
          continue;
        }
        ++rerouted;
        ++interleave_reroutes[c];
        patch(gained, c, true);
        // Dirty-set propagation: a commit changes a peer's incentive only
        // where this net GAINED wire the peer holds — that owner (unique
        // per context: sessions route exclusively) gets one next-wave
        // entry.  Freed-only nodes need no requeue: losing pressure never
        // invalidates a peer's current route.
        for (const arch::NodeId n : gained) {
          const std::size_t ni = static_cast<std::size_t>(n);
          if (users[ni] < 2) {
            continue;
          }
          for (std::size_t c2 = 0; c2 < num_contexts; ++c2) {
            if (c2 == c || usage[c2][ni] == 0) {
              continue;
            }
            const std::int32_t peer = cores.core(c2).session_owner(ni);
            if (peer < 0) {
              continue;
            }
            const std::size_t pi = static_cast<std::size_t>(peer);
            if (wave_mark[c2][pi] == wave + 1) {
              continue;
            }
            wave_mark[c2][pi] = wave + 1;
            next.push(key_of(c2, pi), pack(c2, pi));
            ++requeued;
            ++interleave_requeues[c2];
          }
        }
      }

      // Score the wave exactly like the baseline, against the sessions'
      // live routing; keep-best preserves the never-worse guarantee wave
      // by wave.
      NegotiationRoundStats s = score_state(session_nets, usage, arcs, sta);
      s.round = stats.size();
      s.seconds = std::chrono::duration<double>(clock::now() - start).count();
      s.nets_rerouted = rerouted;
      s.nets_requeued = requeued;
      for (std::size_t c = 0; c < num_contexts; ++c) {
        s.heap_pushes += cores.core(c).session_heap_pushes();
        s.nodes_expanded += cores.core(c).session_nodes_expanded();
      }
      s.heap_pushes -= pushes_before;
      s.nodes_expanded -= expanded_before;
      stats.push_back(s);

      const Score score(s, score_by_sta);
      if (score.better_than(best_score)) {
        best_score = score;
        best_round = stats.size() - 1;
        for (std::size_t c = 0; c < num_contexts; ++c) {
          RouterCore::ContextResult& r = baseline[c];
          r.nets = *session_nets[c];
          r.wire_nodes_used = 0;
          r.switches_crossed = 0;
          for (const RoutedNet& net : r.nets) {
            for (const RoutedPath& path : net.paths) {
              r.switches_crossed += path.switch_count();
              r.wire_nodes_used += path.edges.size();
            }
          }
        }
      }
      active = 1 - active;
      if (s.conflicts == 0) {
        break;  // a further wave could only tie on the kept metric
      }
    }

    // Close the sessions and attribute their expansion traffic to the
    // kept results — the counters describe work done, whichever wave won.
    for (std::size_t c = 0; c < num_contexts; ++c) {
      const RouterCore::ContextResult sess = cores.core(c).session_finish();
      cores.release(c);
      baseline[c].heap_pushes += sess.heap_pushes;
      baseline[c].heap_pops += sess.heap_pops;
      baseline[c].stale_pops += sess.stale_pops;
      baseline[c].nodes_expanded += sess.nodes_expanded;
    }
  }

  // --- Keep the best entry ---------------------------------------------------
  RouteResult result = merge_context_results(graph, std::move(baseline));
  stats[best_round].kept = true;
  result.negotiation_stats = std::move(stats);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    result.context_summary[c].interleave_reroutes = interleave_reroutes[c];
    result.context_summary[c].interleave_requeues = interleave_requeues[c];
  }
  return result;
}

}  // namespace mcfpga::route
