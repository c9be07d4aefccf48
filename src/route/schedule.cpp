#include "route/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "route/router_core.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::route {

namespace {

/// Negotiation rounds after the independent baseline (round 0): round 1 is
/// the sequential claim pass, later rounds are Jacobi re-routes.  The loop
/// usually stops earlier, once conflicts stop improving.
constexpr std::size_t kCrossContextRounds = 3;

/// Scale of foreign-context wire usage folded into a context's present
/// congestion cost, further weighted by the EXPORTING context's
/// criticality — critical contexts push hard, uncritical ones barely.
constexpr double kCrossContextPressureWeight = 0.5;

/// kInterleaved: cap on re-route waves after the baseline.  The dirty set
/// usually dries up well before it.
constexpr std::size_t kInterleaveWaves = 8;

/// kInterleaved: bucket width of the merged queue's priority key
/// 1 - ctx_crit * net_crit.  Nets whose keys share a bucket pop FIFO, which
/// keeps the wave order a pure function of push order.
constexpr double kInterleaveCritQuantum = 1.0 / 64.0;

/// Everything a "keep best round" restore needs: the per-context results
/// and the PathFinder history as it stood right after that round.
struct Snapshot {
  std::vector<RouterCore::ContextResult> results;
  std::vector<std::vector<double>> history;
};

/// Round quality, compared lexicographically: first the timing metric
/// (worst per-context STA critical path when specs are available, worst
/// per-connection switch count otherwise), then total cross-context
/// conflicts.  Ties keep the earlier round.
struct Score {
  double primary = 0.0;
  std::size_t conflicts = 0;

  bool better_than(const Score& o) const {
    if (primary != o.primary) {
      return primary < o.primary;
    }
    return conflicts < o.conflicts;
  }
};

}  // namespace

ContextScheduler::ContextScheduler(const arch::RoutingGraph& graph,
                                   const RouterOptions& options)
    : graph_(graph), options_(options) {}

RouteResult ContextScheduler::route(
    const std::vector<std::vector<RouteNet>>& nets_per_context,
    const std::vector<timing::ContextTimingSpec>* timing,
    RouteHistory* history, const std::vector<double>* context_criticality,
    CorePool* pool) const {
  using clock = std::chrono::steady_clock;
  const std::size_t num_contexts = nets_per_context.size();
  const std::size_t num_nodes = graph_.num_nodes();

  // Per-worker engines, persistent across rounds (and across calls when
  // the caller passed a pool): every round reuses the same arena scratch
  // and cached timing DAGs.  Slot 0 doubles as the claim pass's engine.
  const std::size_t workers =
      effective_threads(options_.num_threads, num_contexts);
  const bool interleaved =
      options_.cross_context_mode == CrossContextMode::kInterleaved;
  CorePool local_pool;
  CorePool& cores = pool != nullptr ? *pool : local_pool;
  // Interleaved mode keeps one live session per CONTEXT (each owns a
  // context's occupancy/owner maps for the whole wave loop), so the pool
  // must cover the contexts, not just the workers.
  cores.prepare(std::max(workers, interleaved ? num_contexts : 0), graph_,
                options_);

  // Per-context criticalities in [0, 1]; null = all equally critical, so
  // the claim order degenerates to context order and every context
  // exports full-strength pressure.
  std::vector<double> crit(num_contexts, 1.0);
  if (context_criticality != nullptr) {
    for (std::size_t c = 0; c < num_contexts; ++c) {
      crit[c] = std::clamp((*context_criticality)[c], 0.0, 1.0);
    }
  }
  // Claim order: descending criticality, ties toward the lower index
  // (stable), so the order is deterministic for equal criticalities.
  std::vector<std::size_t> order(num_contexts);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return crit[a] > crit[b];
  });

  // Per-round STA scoring state (specs available => exact critical paths;
  // otherwise rounds are scored by worst switch count).  The DAG topology
  // is fixed across rounds, so one TimingGraph per context re-analyzes
  // incrementally.
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

  // Negotiation state: per-context PathFinder history carried across
  // rounds (seeded from the caller's carry-in when present) and the wire
  // usage each context exported after its latest pass.
  std::vector<std::vector<double>> hist(num_contexts);
  if (history != nullptr) {
    hist = history->per_context;  // prepare()d: entries empty or node-sized
  }
  std::vector<std::vector<std::uint8_t>> usage(num_contexts);
  std::vector<RouterCore::ContextResult> current(num_contexts);

  // One parallel round: every context re-routes against `pressure`
  // frozen before the round started (null on the round-0 baseline).
  // Exceptions re-raise in context order, like the independent router.
  const auto run_parallel_round =
      [&](const std::vector<std::vector<double>>* pressure) {
        std::vector<std::exception_ptr> errors(num_contexts);
        std::atomic<std::size_t> next_slot{0};
        parallel_for_index(num_contexts, workers, [&]() {
          // Pool slots are interchangeable (route_pass fully resets
          // per-pass state), so first-come claiming cannot perturb the
          // result.
          RouterCore* core = &cores.core(next_slot.fetch_add(1));
          return [&, core](std::size_t c) {
            try {
              current[c] = core->route_pass(
                  nets_per_context[c], timing ? &(*timing)[c] : nullptr,
                  &hist[c], pressure ? &(*pressure)[c] : nullptr, &usage[c]);
            } catch (...) {
              errors[c] = std::current_exception();
            }
          };
        });
        for (std::size_t c = 0; c < num_contexts; ++c) {
          if (errors[c]) {
            std::rethrow_exception(errors[c]);
          }
        }
      };

  // The claim pass: sequential in criticality order; the context at
  // position k sees the accumulated crit-weighted usage of positions
  // 0..k-1 ONLY — critical contexts claim wires first, everyone after
  // them detours around the claims.
  const auto run_claim_round = [&]() {
    RouterCore& core = cores.core(0);
    std::vector<double> accum(num_nodes, 0.0);
    std::vector<double> pressure(num_nodes, 0.0);
    for (const std::size_t c : order) {
      for (std::size_t n = 0; n < num_nodes; ++n) {
        pressure[n] = kCrossContextPressureWeight * accum[n];
      }
      current[c] =
          core.route_pass(nets_per_context[c],
                          timing ? &(*timing)[c] : nullptr, &hist[c],
                          &pressure, &usage[c]);
      for (std::size_t n = 0; n < num_nodes; ++n) {
        if (usage[c][n] != 0) {
          accum[n] += crit[c];
        }
      }
    }
  };

  // Jacobi pressure for rounds >= 2: context c sees every peer's usage,
  // weighted by the EXPORTING context's criticality.  Folded in context
  // order, so the map is identical for any worker count.
  const auto build_jacobi_pressure = [&]() {
    std::vector<double> total(num_nodes, 0.0);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      for (std::size_t n = 0; n < num_nodes; ++n) {
        if (usage[c][n] != 0) {
          total[n] += crit[c];
        }
      }
    }
    std::vector<std::vector<double>> pressure(num_contexts);
    for (std::size_t c = 0; c < num_contexts; ++c) {
      pressure[c].resize(num_nodes);
      for (std::size_t n = 0; n < num_nodes; ++n) {
        const double own = usage[c][n] != 0 ? crit[c] : 0.0;
        pressure[c][n] = kCrossContextPressureWeight * (total[n] - own);
      }
    }
    return pressure;
  };

  const auto all_converged = [&]() {
    for (const auto& r : current) {
      if (!r.converged) {
        return false;
      }
    }
    return true;
  };

  // Scores the round just routed and appends its stats row.
  std::vector<NegotiationRoundStats> stats;
  const auto evaluate_and_record = [&](std::size_t round,
                                       const clock::time_point& start) {
    NegotiationRoundStats s;
    s.round = round;
    for (const std::size_t per_context : cross_context_conflicts(usage)) {
      s.conflicts += per_context;
    }
    for (const auto& r : current) {
      for (const auto& net : r.nets) {
        for (const auto& path : net.paths) {
          s.worst_critical_switches =
              std::max(s.worst_critical_switches, path.switch_count());
        }
      }
    }
    if (score_by_sta) {
      for (std::size_t c = 0; c < num_contexts; ++c) {
        for (std::size_t i = 0; i < current[c].nets.size(); ++i) {
          const auto& paths = current[c].nets[i].paths;
          for (std::size_t j = 0; j < paths.size(); ++j) {
            arcs[c].set_connection_switches(sta[c], arcs[c].connection(i, j),
                                            paths[j].switch_count());
          }
        }
        sta[c].analyze();
        s.worst_critical_path =
            std::max(s.worst_critical_path, sta[c].critical_path());
      }
    }
    for (const auto& r : current) {
      s.heap_pushes += r.heap_pushes;
      s.nodes_expanded += r.nodes_expanded;
    }
    s.seconds =
        std::chrono::duration<double>(clock::now() - start).count();
    stats.push_back(s);
    return Score{score_by_sta
                     ? s.worst_critical_path
                     : static_cast<double>(s.worst_critical_switches),
                 s.conflicts};
  };

  // --- Round 0: the independent baseline -----------------------------------
  clock::time_point start = clock::now();
  run_parallel_round(nullptr);
  Score best_score = evaluate_and_record(0, start);
  Snapshot best{current, hist};
  std::size_t best_round = 0;

  // Per-context interleaved churn counters (stay zero in round-based
  // modes; folded into the merged summaries at the tail).
  std::vector<std::size_t> interleave_reroutes(num_contexts, 0);
  std::vector<std::size_t> interleave_requeues(num_contexts, 0);

  // Negotiation only makes sense over a converged baseline with something
  // to negotiate about; pressure never helps a context that could not
  // even resolve its own congestion (it only adds cost).
  if (all_converged() && stats[0].conflicts > 0 && !interleaved) {
    std::size_t prev_conflicts = stats[0].conflicts;
    for (std::size_t round = 1; round <= kCrossContextRounds; ++round) {
      start = clock::now();
      if (round == 1) {
        run_claim_round();
      } else {
        const std::vector<std::vector<double>> pressure =
            build_jacobi_pressure();
        run_parallel_round(&pressure);
      }
      const Score score = evaluate_and_record(round, start);
      const bool converged = all_converged();
      if (converged && score.better_than(best_score)) {
        best_score = score;
        best = Snapshot{current, hist};
        best_round = round;
      }
      // Stop once conflicts no longer strictly improve, hit zero (another
      // round could only tie), or a pass broke convergence — the
      // negotiation has said what it has to say.
      if (!converged || stats.back().conflicts == 0 ||
          stats.back().conflicts >= prev_conflicts) {
        break;
      }
      prev_conflicts = stats.back().conflicts;
    }
  }

  // --- Net-interleaved negotiation: one merged worklist ----------------------
  //
  // Instead of whole-context rounds, arm one live SESSION per context
  // (each adopts its round-0 routing) and drive a single merged
  // (context, net) queue ordered by criticality.  Each pop rips ONE net,
  // patches the shared pressure, and re-routes it against the LIVE
  // pressure of everyone else — commit granularity instead of round
  // granularity — then re-enqueues only the nets whose pressure the
  // commit actually changed (dirty-set propagation).  The queue pops FIFO
  // within a priority bucket, so pop order is a pure function of push
  // order; cost tracks conflict churn, not rounds x contexts x nets.
  if (all_converged() && stats[0].conflicts > 0 && interleaved) {
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
    for (std::size_t c = 0; c < num_contexts; ++c) {
      cores.checkout(c).session_begin(nets_per_context[c],
                                      timing ? &(*timing)[c] : nullptr,
                                      current[c].nets, &hist[c], total.data(),
                                      kCrossContextPressureWeight);
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
      const std::vector<RoutedNet>& nets = cores.core(c).session_nets();
      for (std::size_t i = 0; i < nets.size(); ++i) {
        bool contested = false;
        for (const RoutedPath& path : nets[i].paths) {
          for (const arch::EdgeId e : path.edges) {
            const arch::NodeId to = graph_.edge(e).to;
            if (graph_.node(to).kind == arch::NodeKind::kWire &&
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
      start = clock::now();
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

      // Score the wave exactly like a negotiation round, against the
      // sessions' live routing; keep-best preserves the never-worse
      // guarantee wave by wave.
      NegotiationRoundStats s;
      s.round = stats.size();
      for (const std::size_t per_context : cross_context_conflicts(usage)) {
        s.conflicts += per_context;
      }
      for (std::size_t c = 0; c < num_contexts; ++c) {
        for (const RoutedNet& net : cores.core(c).session_nets()) {
          for (const RoutedPath& path : net.paths) {
            s.worst_critical_switches =
                std::max(s.worst_critical_switches, path.switch_count());
          }
        }
      }
      if (score_by_sta) {
        for (std::size_t c = 0; c < num_contexts; ++c) {
          const std::vector<RoutedNet>& nets = cores.core(c).session_nets();
          for (std::size_t i = 0; i < nets.size(); ++i) {
            for (std::size_t j = 0; j < nets[i].paths.size(); ++j) {
              arcs[c].set_connection_switches(
                  sta[c], arcs[c].connection(i, j),
                  nets[i].paths[j].switch_count());
            }
          }
          sta[c].analyze();
          s.worst_critical_path =
              std::max(s.worst_critical_path, sta[c].critical_path());
        }
      }
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

      const Score score{score_by_sta
                            ? s.worst_critical_path
                            : static_cast<double>(s.worst_critical_switches),
                        s.conflicts};
      if (score.better_than(best_score)) {
        best_score = score;
        best_round = stats.size() - 1;
        for (std::size_t c = 0; c < num_contexts; ++c) {
          RouterCore::ContextResult& r = best.results[c];
          r.nets = cores.core(c).session_nets();
          r.wire_nodes_used = 0;
          r.switches_crossed = 0;
          for (const RoutedNet& net : r.nets) {
            for (const RoutedPath& path : net.paths) {
              r.switches_crossed += path.switch_count();
              r.wire_nodes_used += path.edges.size();
            }
          }
        }
        // History stays the baseline's: sessions route exclusively and
        // never write history.
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
      best.results[c].heap_pushes += sess.heap_pushes;
      best.results[c].heap_pops += sess.heap_pops;
      best.results[c].stale_pops += sess.stale_pops;
      best.results[c].nodes_expanded += sess.nodes_expanded;
    }
  }

  // --- Keep the best round ---------------------------------------------------
  if (history != nullptr) {
    history->per_context = std::move(best.history);
  }
  RouteResult result = merge_context_results(graph_, std::move(best.results));
  result.negotiation_rounds = stats.size();
  stats[best_round].kept = true;
  result.negotiation_stats = std::move(stats);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    result.context_summary[c].interleave_reroutes = interleave_reroutes[c];
    result.context_summary[c].interleave_requeues = interleave_requeues[c];
  }
  return result;
}

}  // namespace mcfpga::route
