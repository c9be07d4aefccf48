// E5 — Figs. 10-11: routing delay with and without double-length lines.
// A signal crossing L cells serially passes ~L switch-block SEs; on
// double-length lines it passes ~L/2 diamond switches.  The bench routes
// straight-line connections of growing length and a full compiled design
// under both configurations, then times serial vs parallel per-context
// routing on a multi-context workload.
//
// The bench also compares the router's two maze-expansion engines
// (RouterOptions::queue_mode): the classic binary heap against the
// monotone bucket queue, on a congested random multi-context workload —
// wall clock, queue-traffic counters, and a QoR gate (bucket must never
// be worse on worst critical switches, then wirelength; non-smoke runs
// additionally gate the >= 1.5x maze-expansion speedup), and the
// interleaved cross-context post-pass on the same workload — total maze
// traffic summed over the baseline and every wave, a gate that the kept
// entry is never worse than the independent baseline on worst critical
// switches, and an FNV-1a fingerprint of the interleaved routing (pinned
// in BENCH_ROUTING.json, so any change to what gets committed fails CI).
//
// Pass --smoke for a reduced CI-sized run.  Every measurement also emits
// one BENCH_JSON machine-readable line (see bench_json.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "arch/routing_graph.hpp"
#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/mcfpga.hpp"
#include "route/router.hpp"
#include "workload/circuits.hpp"

using namespace mcfpga;

namespace {

route::RoutedPath route_straight(std::size_t length, bool prefer_dl) {
  arch::FabricSpec spec;
  spec.width = length + 1;
  spec.height = 1;
  spec.channel_width = 4;
  spec.double_length_tracks = 2;
  const arch::RoutingGraph g(spec);
  route::RouterOptions opts;
  opts.prefer_double_length = prefer_dl;
  const route::Router router(g, opts);
  std::vector<std::vector<route::RouteNet>> nets(4);
  nets[0].push_back(route::RouteNet{
      "straight", g.out_pin(0, 0, 0), {g.in_pin(length, 0, 0)}});
  const auto result = router.route(nets);
  return result.nets[0][0].paths[0];
}

/// Deterministic congested multi-context routing problem, straight on the
/// routing graph: per context, `nets_per_context` nets with distinct
/// source pins and 1-3 distinct sink pins each (PathFinder's exclusivity
/// rules make duplicate endpoints unroutable, so endpoints are sampled
/// without replacement).
std::vector<std::vector<route::RouteNet>> random_route_problem(
    const arch::RoutingGraph& g, std::size_t num_contexts,
    std::size_t nets_per_context, std::uint64_t seed) {
  const arch::FabricSpec& spec = g.spec();
  std::uint64_t state = seed;
  const auto next = [&]() {  // splitmix64
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<route::RouteNet>> nets(num_contexts);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    // Endpoint pools, shuffled once per context (Fisher-Yates).
    std::vector<arch::NodeId> sources;
    std::vector<arch::NodeId> sinks;
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < spec.width; ++x) {
        for (std::size_t p = 0; p < spec.logic_block.num_outputs; ++p) {
          sources.push_back(g.out_pin(x, y, p));
        }
        for (std::size_t p = 0; p < spec.logic_block.base_inputs; ++p) {
          sinks.push_back(g.in_pin(x, y, p));
        }
      }
    }
    for (std::size_t i = sources.size(); i > 1; --i) {
      std::swap(sources[i - 1], sources[next() % i]);
    }
    for (std::size_t i = sinks.size(); i > 1; --i) {
      std::swap(sinks[i - 1], sinks[next() % i]);
    }
    std::size_t sink_at = 0;
    for (std::size_t i = 0; i < nets_per_context; ++i) {
      route::RouteNet net;
      net.name = "rnd_c" + std::to_string(c) + "_n" + std::to_string(i);
      net.source = sources[i];
      const std::size_t fanout = 1 + next() % 3;
      for (std::size_t s = 0; s < fanout && sink_at < sinks.size(); ++s) {
        net.sinks.push_back(sinks[sink_at++]);
      }
      nets[c].push_back(std::move(net));
    }
  }
  return nets;
}

/// Sums one counter over a RouteResult's context summaries.
std::size_t total_of(const route::RouteResult& r,
                     std::size_t route::ContextRouteSummary::* member) {
  std::size_t total = 0;
  for (const auto& s : r.context_summary) {
    total += s.*member;
  }
  return total;
}

std::size_t worst_switches(const route::RouteResult& r) {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < r.nets.size(); ++c) {
    worst = std::max(worst, r.critical_switches(c));
  }
  return worst;
}

/// FNV-1a over every routed path (source, then each path's sink and
/// edges), as 16 hex digits: any divergence in what the router committed
/// shows up here.
std::string routing_fingerprint(const route::RouteResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const auto& per_context : r.nets) {
    for (const auto& net : per_context) {
      mix(static_cast<std::uint64_t>(net.source));
      for (const auto& path : net.paths) {
        mix(static_cast<std::uint64_t>(path.sink));
        for (const auto e : path.edges) {
          mix(static_cast<std::uint64_t>(e));
        }
      }
    }
  }
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(h));
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== E5: double-length lines vs serial SEs (Figs. 10-11) "
               "===\n\n";

  Table t({"distance (cells)", "switches (single-length only)",
           "switches (with double-length)", "diamonds used", "speedup"});
  const std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{2, 4, 8}
            : std::vector<std::size_t>{2, 4, 6, 8, 12, 16};
  for (const std::size_t len : lengths) {
    const auto slow = route_straight(len, false);
    const auto fast = route_straight(len, true);
    t.add_row({std::to_string(len), std::to_string(slow.switch_count()),
               std::to_string(fast.switch_count()),
               std::to_string(fast.diamond_count),
               fmt_double(static_cast<double>(slow.switch_count()) /
                              static_cast<double>(fast.switch_count()),
                          2) +
                   "x"});
    bench::json_line("routing_delay_straight_single", len, 0.0,
                     static_cast<double>(slow.switch_count()));
    bench::json_line("routing_delay_straight_double", len, 0.0,
                     static_cast<double>(fast.switch_count()),
                     R"("diamonds":)" + std::to_string(fast.diamond_count));
  }
  std::cout << "straight-line route, SE crossings (delay in SE units):\n";
  t.print(std::cout);
  std::cout << "expected shape: the double-length configuration crosses\n"
               "roughly half the switches at long distances (Fig. 10).\n\n";

  // Full-design critical path with and without the fast lines.
  const std::size_t stages = smoke ? 6 : 8;
  Table d({"configuration", "critical path ctx0", "ctx1", "ctx2", "ctx3"});
  for (const bool dl : {false, true}) {
    arch::FabricSpec spec;
    spec.width = 5;
    spec.height = 5;
    spec.channel_width = 8;
    spec.double_length_tracks = dl ? 4 : 0;
    core::CompileOptions options;
    options.router.prefer_double_length = dl;
    const core::MCFPGA chip(workload::pipeline_workload(4, stages), spec,
                            options);
    std::vector<std::string> row = {dl ? "with double-length lines"
                                       : "single-length only"};
    double worst = 0.0;
    for (const auto& s : chip.design().context_stats) {
      row.push_back(fmt_double(s.critical_path, 1));
      worst = std::max(worst, s.critical_path);
    }
    d.add_row(row);
    bench::json_line(dl ? "routing_delay_e5_double" : "routing_delay_e5_single",
                     stages, 0.0, worst);
  }
  std::cout << "compiled pipeline workload, critical path (SE units):\n";
  d.print(std::cout);

  // --- Serial vs parallel per-context routing ------------------------------
  // Same nets, same graph; only the router's worker count changes.  The
  // results are bit-identical by construction, so the only difference to
  // observe is wall clock.
  {
    arch::FabricSpec spec;
    spec.width = 6;
    spec.height = 6;
    spec.channel_width = 8;
    spec.double_length_tracks = 4;
    const std::size_t depth = smoke ? 6 : 10;
    core::CompileOptions options;
    const core::MCFPGA chip(workload::pipeline_workload(4, depth), spec,
                            options);

    Table p({"router workers", "route stage (ms)"});
    double serial_ms = 0.0;
    double parallel_ms = 0.0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
      core::CompileOptions timed = options;
      timed.router.num_threads = workers;
      const auto design = core::compile(workload::pipeline_workload(4, depth),
                                        spec, timed);
      double route_ms = 0.0;
      for (const auto& s : design.stage_timings) {
        if (s.name == "route") {
          route_ms = s.seconds * 1e3;
        }
      }
      (workers == 1 ? serial_ms : parallel_ms) = route_ms;
      p.add_row({workers == 0 ? "auto (hardware)" : std::to_string(workers),
                 fmt_double(route_ms, 2)});
      bench::json_line(workers == 1 ? "routing_delay_route_serial"
                                    : "routing_delay_route_parallel",
                       depth, route_ms, 0.0);
    }
    std::cout << "\nserial vs parallel per-context routing (bit-identical "
                 "results):\n";
    p.print(std::cout);
    if (parallel_ms > 0.0) {
      std::cout << "routing speedup (serial / parallel): "
                << fmt_double(serial_ms / parallel_ms, 2) << "x\n";
    }
  }

  // --- Maze-expansion engine: binary heap vs bucket queue ------------------
  // Identical congested workload, identical options except queue_mode;
  // serial routing so the wall clock is the engine, not the scheduler.
  // The gate (a non-zero exit) enforces the bucket engine's contract:
  // never worse on QoR (worst critical switches, then total wirelength),
  // and — outside --smoke, where machine noise would flake CI — at least
  // a 1.5x maze-expansion speedup.
  {
    using clock = std::chrono::steady_clock;
    arch::FabricSpec spec;
    spec.width = smoke ? 10 : 20;
    spec.height = spec.width;
    spec.channel_width = 8;
    spec.double_length_tracks = 4;
    const arch::RoutingGraph g(spec);
    const std::size_t nets_per_context = smoke ? 60 : 200;
    const auto nets = random_route_problem(g, 4, nets_per_context, 1234);
    const std::size_t reps = smoke ? 1 : 3;

    struct EngineRun {
      double best_ms = 0.0;
      route::RouteResult result;
    };
    const auto run_engine = [&](route::QueueMode mode) {
      route::RouterOptions opts;
      opts.num_threads = 1;
      opts.queue_mode = mode;
      const route::Router router(g, opts);
      EngineRun run;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const clock::time_point start = clock::now();
        route::RouteResult result = router.route(nets);
        const double ms =
            std::chrono::duration<double>(clock::now() - start).count() * 1e3;
        if (rep == 0 || ms < run.best_ms) {
          run.best_ms = ms;
        }
        run.result = std::move(result);
      }
      return run;
    };

    const EngineRun binary = run_engine(route::QueueMode::kBinaryHeap);
    const EngineRun bucket = run_engine(route::QueueMode::kBucket);

    Table et({"engine", "route (ms)", "heap pushes", "heap pops",
              "stale pops", "nodes expanded", "worst switches",
              "wirelength"});
    const auto counters_json = [](const route::RouteResult& r) {
      return "\"heap_pushes\":" +
             std::to_string(total_of(r, &route::ContextRouteSummary::
                                            heap_pushes)) +
             ",\"heap_pops\":" +
             std::to_string(
                 total_of(r, &route::ContextRouteSummary::heap_pops)) +
             ",\"stale_pops\":" +
             std::to_string(
                 total_of(r, &route::ContextRouteSummary::stale_pops)) +
             ",\"nodes_expanded\":" +
             std::to_string(
                 total_of(r, &route::ContextRouteSummary::nodes_expanded)) +
             ",\"worst_switches\":" + std::to_string(worst_switches(r));
    };
    for (const auto* e : {&binary, &bucket}) {
      const route::RouteResult& r = e->result;
      et.add_row(
          {e == &binary ? "binary heap" : "bucket queue",
           fmt_double(e->best_ms, 2),
           fmt_count(total_of(r, &route::ContextRouteSummary::heap_pushes)),
           fmt_count(total_of(r, &route::ContextRouteSummary::heap_pops)),
           fmt_count(total_of(r, &route::ContextRouteSummary::stale_pops)),
           fmt_count(
               total_of(r, &route::ContextRouteSummary::nodes_expanded)),
           std::to_string(worst_switches(r)),
           fmt_count(
               total_of(r, &route::ContextRouteSummary::wire_nodes_used))});
      bench::json_line(
          e == &binary ? "routing_engine_binary" : "routing_engine_bucket",
          4 * nets_per_context, e->best_ms,
          static_cast<double>(
              total_of(r, &route::ContextRouteSummary::wire_nodes_used)),
          counters_json(r));
    }
    std::cout << "\nmaze-expansion engine comparison (serial, congested "
                 "random workload, best of "
              << reps << "):\n";
    et.print(std::cout);
    const double speedup =
        bucket.best_ms > 0.0 ? binary.best_ms / bucket.best_ms : 0.0;
    std::cout << "maze-expansion speedup (binary / bucket): "
              << fmt_double(speedup, 2) << "x\n";
    bench::json_line("routing_engine_speedup", 4 * nets_per_context, 0.0,
                     speedup);

    if (!binary.result.success || !bucket.result.success) {
      std::cout << "FAIL: engine comparison workload did not converge\n";
      return 1;
    }
    const std::size_t ws_bin = worst_switches(binary.result);
    const std::size_t ws_buk = worst_switches(bucket.result);
    const std::size_t wl_bin =
        total_of(binary.result, &route::ContextRouteSummary::wire_nodes_used);
    const std::size_t wl_buk =
        total_of(bucket.result, &route::ContextRouteSummary::wire_nodes_used);
    if (ws_buk > ws_bin || (ws_buk == ws_bin && wl_buk > wl_bin)) {
      std::cout << "FAIL: bucket queue worse on QoR (worst switches "
                << ws_buk << " vs " << ws_bin << ", wirelength " << wl_buk
                << " vs " << wl_bin << ")\n";
      return 1;
    }
    if (!smoke && speedup < 1.5) {
      std::cout << "FAIL: bucket engine speedup " << fmt_double(speedup, 2)
                << "x below the 1.5x gate\n";
      return 1;
    }

    // Whole-flow QoR cross-check with timing-driven routing: an identical
    // compile with each engine — bucket must not end with a worse worst
    // context critical path (then wirelength).
    arch::FabricSpec flow_spec;
    flow_spec.width = 5;
    flow_spec.height = 5;
    flow_spec.channel_width = 8;
    flow_spec.double_length_tracks = 4;
    core::CompileOptions flow_opts;
    flow_opts.placer.timing_mode = true;
    flow_opts.router.timing_mode = true;
    core::CompileOptions bucket_opts = flow_opts;
    bucket_opts.router.queue_mode = route::QueueMode::kBucket;
    const auto d_bin = core::compile(
        workload::pipeline_workload(4, smoke ? 6 : 8), flow_spec, flow_opts);
    const auto d_buk = core::compile(
        workload::pipeline_workload(4, smoke ? 6 : 8), flow_spec,
        bucket_opts);
    const auto flow_qor = [](const core::CompiledDesign& d) {
      double worst = 0.0;
      std::size_t wirelength = 0;
      for (const auto& s : d.context_stats) {
        worst = std::max(worst, s.critical_path);
        wirelength += s.wire_nodes_used;
      }
      return std::make_pair(worst, wirelength);
    };
    const auto [cp_bin, fwl_bin] = flow_qor(d_bin);
    const auto [cp_buk, fwl_buk] = flow_qor(d_buk);
    std::cout << "timing-driven compile, worst critical path: binary "
              << fmt_double(cp_bin, 1) << " vs bucket "
              << fmt_double(cp_buk, 1) << " SE\n";
    bench::json_line("routing_engine_flow_binary", 4, 0.0, cp_bin,
                     "\"wirelength\":" + std::to_string(fwl_bin));
    bench::json_line("routing_engine_flow_bucket", 4, 0.0, cp_buk,
                     "\"wirelength\":" + std::to_string(fwl_buk));
    if (cp_buk > cp_bin || (cp_buk == cp_bin && fwl_buk > fwl_bin)) {
      std::cout << "FAIL: bucket queue worse on timing-driven flow QoR\n";
      return 1;
    }
  }

  // --- Cross-context routing: the interleaved post-pass ----------------------
  // A congested multi-context workload routed with cross_context_mode =
  // kInterleaved.  The honest cost of the post-pass is the maze traffic of
  // EVERY entry it recorded (the independent baseline plus each wave), not
  // just the kept one, so the totals sum NegotiationRoundStats over all
  // entries.  The gate enforces the post-pass's contract: the kept entry's
  // worst critical switches are never worse than the independent
  // baseline's (entry 0).
  {
    using clock = std::chrono::steady_clock;
    arch::FabricSpec spec;
    spec.width = smoke ? 10 : 20;
    spec.height = spec.width;
    spec.channel_width = 8;
    spec.double_length_tracks = 4;
    const arch::RoutingGraph g(spec);
    const std::size_t nets_per_context = smoke ? 60 : 200;
    const auto nets = random_route_problem(g, 4, nets_per_context, 1234);

    route::RouterOptions opts;
    opts.num_threads = 1;
    opts.cross_context_mode = route::CrossContextMode::kInterleaved;
    const route::Router router(g, opts);
    const clock::time_point start = clock::now();
    const route::RouteResult inter = router.route(nets);
    const double ms =
        std::chrono::duration<double>(clock::now() - start).count() * 1e3;
    std::size_t expansions = 0;  // summed over every entry
    std::size_t pushes = 0;
    for (const auto& s : inter.negotiation_stats) {
      expansions += s.nodes_expanded;
      pushes += s.heap_pushes;
    }
    const std::size_t conflicts = total_of(
        inter, &route::ContextRouteSummary::cross_context_conflicts);

    Table nt({"scheduler", "route (ms)", "entries", "total expansions",
              "total pushes", "conflicts", "worst switches"});
    nt.add_row({"net-interleaved queue", fmt_double(ms, 2),
                std::to_string(inter.negotiation_stats.size()),
                fmt_count(expansions), fmt_count(pushes),
                std::to_string(conflicts),
                std::to_string(worst_switches(inter))});
    // The line also pins the routed-path fingerprint: the drain commits
    // one net at a time in queue order, so the committed routing must
    // reproduce exactly.
    bench::json_line(
        "routing_negotiation_interleaved", 4 * nets_per_context, ms,
        static_cast<double>(expansions),
        "\"heap_pushes\":" + std::to_string(pushes) + ",\"entries\":" +
            std::to_string(inter.negotiation_stats.size()) +
            ",\"conflicts\":" + std::to_string(conflicts) +
            ",\"worst_switches\":" + std::to_string(worst_switches(inter)) +
            ",\"fingerprint\":\"" + routing_fingerprint(inter) + "\"");
    // Per-wave trace: how fast the dirty set drains.
    for (const auto& s : inter.negotiation_stats) {
      bench::json_line(
          "routing_negotiation_wave", s.round, s.seconds * 1e3,
          static_cast<double>(s.nodes_expanded),
          "\"rerouted\":" + std::to_string(s.nets_rerouted) +
              ",\"requeued\":" + std::to_string(s.nets_requeued) +
              ",\"conflicts\":" + std::to_string(s.conflicts) +
              ",\"kept\":" + (s.kept ? std::string("true")
                                     : std::string("false")));
    }
    std::cout << "\ncross-context interleaved routing (serial, congested "
                 "random workload):\n";
    nt.print(std::cout);
    std::cout << "interleaved routed-path fingerprint: "
              << routing_fingerprint(inter) << "\n";

    if (!inter.success) {
      std::cout << "FAIL: interleaved routing workload did not converge\n";
      return 1;
    }
    // The returned routing is the kept entry; entry 0 is the baseline.
    const std::size_t baseline_switches =
        inter.negotiation_stats[0].worst_critical_switches;
    if (worst_switches(inter) > baseline_switches) {
      std::cout << "FAIL: interleaved routing worse on worst critical "
                   "switches than the independent baseline ("
                << worst_switches(inter) << " vs " << baseline_switches
                << ")\n";
      return 1;
    }
  }

  return 0;
}
