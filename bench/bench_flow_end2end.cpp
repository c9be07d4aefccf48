// E10 — end-to-end CAD flow on the workload suite: mapping, clustering,
// placement, routing, timing, functional verification (fabric simulator vs
// netlist reference), the per-design area comparison, per-stage pipeline
// timings, and serial-vs-parallel routing wall clock.
//
// Pass --smoke for a reduced CI-sized run.  Each compiled workload prints
// one BENCH_JSON measurement line (see bench_json.hpp).
#include <cstring>
#include <iostream>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "config/serialize.hpp"
#include "core/mcfpga.hpp"
#include "core/report.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

using namespace mcfpga;

namespace {

netlist::MultiContextNetlist replicated(const netlist::Dfg& dfg) {
  netlist::MultiContextNetlist nl(4);
  for (std::size_t c = 0; c < 4; ++c) {
    nl.context(c) = dfg;
  }
  return nl;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== E10: end-to-end flow on the workload suite ===\n\n";

  struct Workload {
    std::string name;
    netlist::MultiContextNetlist nl;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"adder4 x4ctx", replicated(
                                            workload::ripple_carry_adder(4))});
  if (!smoke) {
    workloads.push_back({"mult3 x4ctx",
                         replicated(workload::array_multiplier(3))});
  }
  workloads.push_back({"pipeline(4,8)", workload::pipeline_workload(4, 8)});
  if (!smoke) {
    netlist::MultiContextNetlist mixed(4);
    mixed.context(0) = workload::ripple_carry_adder(3);
    mixed.context(1) = workload::comparator(5);
    mixed.context(2) = workload::parity_tree(8);
    mixed.context(3) = workload::crc_step(6, 0b000011);
    workloads.push_back({"heterogeneous", std::move(mixed)});
  }
  if (!smoke) {
    workload::RandomMultiContextParams params;
    params.base.num_inputs = 8;
    params.base.num_nodes = 24;
    params.base.max_arity = 4;
    params.base.seed = 1010;
    params.share_fraction = 0.4;
    workloads.push_back(
        {"random(24n,40%sh)", workload::random_multi_context(params)});
  }

  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;

  // Sums one maze-expansion counter over a design's context stats (see
  // core::ContextStats — filled from the router's kept pass).
  const auto stat_total = [](const core::CompiledDesign& d,
                             std::size_t core::ContextStats::* member) {
    std::size_t total = 0;
    for (const auto& s : d.context_stats) {
      total += s.*member;
    }
    return total;
  };
  const auto engine_counters_json = [&](const core::CompiledDesign& d) {
    return "\"heap_pushes\":" +
           std::to_string(stat_total(d, &core::ContextStats::heap_pushes)) +
           ",\"heap_pops\":" +
           std::to_string(stat_total(d, &core::ContextStats::heap_pops)) +
           ",\"stale_pops\":" +
           std::to_string(stat_total(d, &core::ContextStats::stale_pops)) +
           ",\"nodes_expanded\":" +
           std::to_string(stat_total(d, &core::ContextStats::nodes_expanded));
  };

  Table t({"workload", "LUT ops", "merged", "LBs", "fabric", "crit path",
           "verify mismatches", "area ratio"});
  for (const auto& w : workloads) {
    const core::MCFPGA chip(w.nl, spec);
    const auto& d = chip.design();
    double worst = 0.0;
    for (const auto& s : d.context_stats) {
      worst = std::max(worst, s.critical_path);
    }
    double compile_ms = 0.0;
    for (const auto& st : d.stage_timings) {
      // Dotted names are overlapping sub-timings (e.g. place.restartN).
      if (st.name.find('.') == std::string::npos) {
        compile_ms += st.seconds * 1e3;
      }
    }
    bench::json_line("flow_" + w.name, d.netlist.total_lut_ops(), compile_ms,
                     worst, engine_counters_json(d));
    const std::size_t mismatches = chip.verify(16, 99);
    t.add_row({w.name, fmt_count(d.netlist.total_lut_ops()),
               fmt_count(d.sharing.merged_lut_ops()),
               fmt_count(d.clusters.size()),
               std::to_string(d.fabric.width) + "x" +
                   std::to_string(d.fabric.height),
               fmt_double(worst, 1), std::to_string(mismatches),
               fmt_percent(chip.area_report().ratio())});
  }
  t.print(std::cout);
  std::cout << "\nexpected: zero mismatches everywhere; area ratio well "
               "below 100% on every design.\n\n";

  // --- Maze-expansion engine through the whole flow ------------------------
  // Identical compiles except RouterOptions::queue_mode: the classic
  // binary heap vs the monotone bucket queue, timing-driven so the QoR
  // gate (a non-zero exit) checks what the flow actually optimizes —
  // bucket routing must never be worse on worst context critical path,
  // then total wirelength.  The BENCH_JSON lines carry the queue-traffic
  // counters so the two engines' work is comparable offline.
  {
    const auto wirelength = [&](const core::CompiledDesign& d) {
      return stat_total(d, &core::ContextStats::wire_nodes_used);
    };
    const auto worst_path = [](const core::CompiledDesign& d) {
      double worst = 0.0;
      for (const auto& s : d.context_stats) {
        worst = std::max(worst, s.critical_path);
      }
      return worst;
    };

    Table et({"engine", "crit path", "wirelength", "heap pushes",
              "stale pops", "nodes expanded"});
    core::CompileOptions opts;
    opts.placer.timing_mode = true;
    opts.router.timing_mode = true;
    const auto nl = workload::pipeline_workload(4, smoke ? 6 : 8);
    bool gate_ok = true;
    double binary_path = 0.0;
    std::size_t binary_wirelength = 0;
    for (const route::QueueMode mode :
         {route::QueueMode::kBinaryHeap, route::QueueMode::kBucket}) {
      const bool bucket = mode == route::QueueMode::kBucket;
      opts.router.queue_mode = mode;
      const auto d = core::compile(nl, spec, opts);
      const double path = worst_path(d);
      const std::size_t wl = wirelength(d);
      if (bucket) {
        gate_ok = path < binary_path ||
                  (path == binary_path && wl <= binary_wirelength);
      } else {
        binary_path = path;
        binary_wirelength = wl;
      }
      et.add_row(
          {bucket ? "bucket queue" : "binary heap", fmt_double(path, 1),
           fmt_count(wl),
           fmt_count(stat_total(d, &core::ContextStats::heap_pushes)),
           fmt_count(stat_total(d, &core::ContextStats::stale_pops)),
           fmt_count(stat_total(d, &core::ContextStats::nodes_expanded))});
      bench::json_line(bucket ? "flow_engine_bucket" : "flow_engine_binary",
                       nl.total_lut_ops(), 0.0, path,
                       "\"wirelength\":" + std::to_string(wl) + "," +
                           engine_counters_json(d));
    }
    std::cout << "maze-expansion engine through the timing-driven flow:\n";
    et.print(std::cout);
    if (!gate_ok) {
      std::cout << "FAIL: bucket-queue flow worse on QoR (critical path, "
                   "then wirelength)\n";
      return 1;
    }
    std::cout << "bucket-queue flow QoR never worse than the binary "
                 "heap's.\n\n";
  }

  // --- Per-stage pipeline timings and routing parallelism ------------------
  // Every workload here has >= 4 contexts; the router fans the contexts out
  // over a worker pool with bit-identical-to-serial results, so the "route"
  // stage is the one expected to gain wall clock on multi-core hosts.
  struct TimedWorkload {
    std::string name;
    netlist::MultiContextNetlist nl;
    arch::FabricSpec spec;
  };
  std::vector<TimedWorkload> timed;
  if (!smoke) {
    arch::FabricSpec big = spec;
    big.width = 6;
    big.height = 6;
    timed.push_back({"pipeline(4,12)", workload::pipeline_workload(4, 12),
                     big});
    workload::RandomMultiContextParams params;
    params.base.num_inputs = 10;
    params.base.num_nodes = 40;
    params.base.seed = 2024;
    params.num_contexts = 8;
    params.share_fraction = 0.3;
    arch::FabricSpec eight = big;
    eight.num_contexts = 8;
    eight.logic_block.num_contexts = 8;
    timed.push_back({"random(40n,8ctx)",
                     workload::random_multi_context(params), eight});
  }

  for (const auto& w : timed) {
    core::CompileOptions serial;
    serial.router.num_threads = 1;
    core::CompileOptions parallel;
    parallel.router.num_threads = 0;  // one worker per hardware thread

    const auto serial_design = core::compile(w.nl, w.spec, serial);
    const auto parallel_design = core::compile(w.nl, w.spec, parallel);

    std::cout << "per-stage wall clock, " << w.name << " ("
              << w.nl.num_contexts() << " contexts):\n";
    Table st({"stage", "serial router (ms)", "parallel router (ms)"});
    double serial_route = 0.0;
    double parallel_route = 0.0;
    for (std::size_t i = 0; i < serial_design.stage_timings.size(); ++i) {
      const auto& s = serial_design.stage_timings[i];
      const auto& p = parallel_design.stage_timings[i];
      st.add_row({s.name, fmt_double(s.seconds * 1e3, 2),
                  fmt_double(p.seconds * 1e3, 2)});
      if (s.name == "route") {
        serial_route = s.seconds;
        parallel_route = p.seconds;
      }
    }
    st.print(std::cout);
    std::cout << "routing speedup (serial / parallel): "
              << fmt_double(serial_route / parallel_route, 2) << "x\n\n";
    bench::json_line("route_serial_" + w.name, w.nl.num_contexts(),
                     serial_route * 1e3, 0.0);
    bench::json_line("route_parallel_" + w.name, w.nl.num_contexts(),
                     parallel_route * 1e3, 0.0);
  }

  // --- Timing-driven vs wirelength-driven compile --------------------------
  // Same workloads, same fabric; only timing_mode changes.  The gate (a
  // non-zero exit) enforces the headline claim: criticality-driven place &
  // route beats pure wirelength on at least one multi-context workload,
  // and timing-driven results stay bit-identical across router worker
  // counts.
  {
    struct TimingWorkload {
      std::string name;
      netlist::MultiContextNetlist nl;
    };
    std::vector<TimingWorkload> tw;
    tw.push_back({"pipeline(4,8)", workload::pipeline_workload(4, 8)});
    {
      netlist::MultiContextNetlist mixed(4);
      mixed.context(0) = workload::ripple_carry_adder(3);
      mixed.context(1) = workload::comparator(5);
      mixed.context(2) = workload::parity_tree(8);
      mixed.context(3) = workload::crc_step(6, 0b000011);
      tw.push_back({"heterogeneous", std::move(mixed)});
    }
    if (!smoke) {
      tw.push_back({"pipeline(4,12)", workload::pipeline_workload(4, 12)});
    }

    const auto worst_path = [](const core::CompiledDesign& d) {
      double worst = 0.0;
      for (const auto& s : d.context_stats) {
        worst = std::max(worst, s.critical_path);
      }
      return worst;
    };

    Table tt({"workload", "crit path (wirelength)", "crit path (timing)",
              "improvement"});
    std::size_t improved = 0;
    bool deterministic = true;
    for (const auto& w : tw) {
      core::CompileOptions off;
      core::CompileOptions on;
      on.placer.timing_mode = true;
      on.router.timing_mode = true;
      const auto d_off = core::compile(w.nl, spec, off);
      const auto d_on = core::compile(w.nl, spec, on);
      const double p_off = worst_path(d_off);
      const double p_on = worst_path(d_on);
      improved += p_on < p_off;
      tt.add_row({w.name, fmt_double(p_off, 1), fmt_double(p_on, 1),
                  fmt_percent(p_off > 0.0 ? (p_off - p_on) / p_off : 0.0)});
      bench::json_line("flow_timing_off_" + w.name, w.nl.num_contexts(), 0.0,
                       p_off);
      bench::json_line("flow_timing_on_" + w.name, w.nl.num_contexts(), 0.0,
                       p_on);

      // Determinism: the criticality refresh lives inside each context's
      // own negotiation, so worker count must not change the answer.
      // d_on already routed with the parallel default (num_threads = 0),
      // so only the serial compile is new work.
      core::CompileOptions on_serial = on;
      on_serial.router.num_threads = 1;
      deterministic &=
          worst_path(core::compile(w.nl, spec, on_serial)) == p_on;
    }
    std::cout << "\ntiming-driven place & route vs wirelength-driven "
                 "(worst context critical path, SE units):\n";
    tt.print(std::cout);
    if (!deterministic) {
      std::cout << "FAIL: timing-driven compile varies with router worker "
                   "count\n";
      return 1;
    }
    if (improved == 0) {
      std::cout << "FAIL: timing_mode never lowered the critical path\n";
      return 1;
    }
    std::cout << "timing-driven mode lowered the critical path on "
              << improved << "/" << tw.size() << " workloads.\n\n";
  }

  // --- Timing-closure loop -------------------------------------------------
  // place -> route -> STA -> re-place (CompileOptions::closure_iterations)
  // with a VPR-style criticality-exponent ramp, vs the one-shot flow on
  // identical options.  One BENCH_JSON line per closure iteration records
  // the iterations-vs-slack/wirelength trajectory; the gate (a non-zero
  // exit) enforces that closure never finishes with worse worst slack
  // than one-shot.
  {
    struct ClosureWorkload {
      std::string name;
      netlist::MultiContextNetlist nl;
    };
    std::vector<ClosureWorkload> cw;
    cw.push_back({"pipeline(4,8)", workload::pipeline_workload(4, 8)});
    if (!smoke) {
      netlist::MultiContextNetlist mixed(4);
      mixed.context(0) = workload::ripple_carry_adder(3);
      mixed.context(1) = workload::comparator(5);
      mixed.context(2) = workload::parity_tree(8);
      mixed.context(3) = workload::crc_step(6, 0b000011);
      cw.push_back({"heterogeneous", std::move(mixed)});
    }

    const auto worst_path = [](const core::CompiledDesign& d) {
      double worst = 0.0;
      for (const auto& s : d.context_stats) {
        worst = std::max(worst, s.critical_path);
      }
      return worst;
    };

    Table ct({"workload", "crit path (one-shot)", "crit path (closure)",
              "iters run", "improvement"});
    bool gate_ok = true;
    for (const auto& w : cw) {
      core::CompileOptions one_shot;
      one_shot.placer.timing_mode = true;
      one_shot.router.timing_mode = true;
      one_shot.router.criticality_exponent_schedule = {1.0, 0.5, 4.0};
      core::CompileOptions closed = one_shot;
      closed.closure_iterations = smoke ? 3 : 4;

      const auto d_one = core::compile(w.nl, spec, one_shot);
      const auto d_closed = core::compile(w.nl, spec, closed);
      const double p_one = worst_path(d_one);
      const double p_closed = worst_path(d_closed);
      gate_ok &= p_closed <= p_one + 1e-9;

      for (const auto& s : d_closed.closure_stats) {
        bench::json_line(
            "closure_" + w.name + "_iter" + std::to_string(s.iteration),
            s.iteration, s.seconds * 1e3, s.worst_slack,
            "\"critical_path\":" + std::to_string(s.critical_path) +
                ",\"wirelength\":" + std::to_string(s.wirelength));
      }
      ct.add_row({w.name, fmt_double(p_one, 1), fmt_double(p_closed, 1),
                  std::to_string(d_closed.closure_stats.size()),
                  fmt_percent(p_one > 0.0 ? (p_one - p_closed) / p_one
                                          : 0.0)});
    }
    std::cout << "\ntiming-closure loop (place -> route -> STA -> re-place) "
                 "vs one-shot:\n";
    ct.print(std::cout);
    if (!gate_ok) {
      std::cout << "FAIL: closure finished with a worse critical path than "
                   "one-shot\n";
      return 1;
    }
    std::cout << "closure never finished worse than one-shot on "
              << cw.size() << " workload(s).\n\n";
  }

  // --- Cross-context interleaved routing -----------------------------------
  // Independent per-context routing vs the interleaved cross-context
  // post-pass (RouterOptions::cross_context_mode) on identical options.
  // One BENCH_JSON line per recorded entry (the baseline, then each wave)
  // records the conflicts/slack/wall-time trajectory; the gate (a
  // non-zero exit) enforces that interleaved routing is never worse than
  // independent on worst slack, and that the compiled bitstream is
  // identical across worker counts.
  {
    struct XctxWorkload {
      std::string name;
      netlist::MultiContextNetlist nl;
    };
    std::vector<XctxWorkload> xw;
    xw.push_back({"pipeline(4,8)", workload::pipeline_workload(4, 8)});
    if (!smoke) {
      netlist::MultiContextNetlist mixed(4);
      mixed.context(0) = workload::ripple_carry_adder(3);
      mixed.context(1) = workload::comparator(5);
      mixed.context(2) = workload::parity_tree(8);
      mixed.context(3) = workload::crc_step(6, 0b000011);
      xw.push_back({"heterogeneous", std::move(mixed)});
    }

    const auto worst_path = [](const core::CompiledDesign& d) {
      double worst = 0.0;
      for (const auto& s : d.context_stats) {
        worst = std::max(worst, s.critical_path);
      }
      return worst;
    };
    const auto conflicts = [](const core::CompiledDesign& d) {
      std::size_t total = 0;
      for (const auto& s : d.context_stats) {
        total += s.cross_context_conflicts;
      }
      return total;
    };

    Table xt({"workload", "crit path (indep)", "crit path (interleaved)",
              "conflicts (indep)", "conflicts (interleaved)", "entries"});
    bool gate_ok = true;
    bool deterministic = true;
    for (const auto& w : xw) {
      core::CompileOptions indep;
      indep.placer.timing_mode = true;
      indep.router.timing_mode = true;
      core::CompileOptions inter = indep;
      inter.router.cross_context_mode =
          route::CrossContextMode::kInterleaved;

      const auto d_indep = core::compile(w.nl, spec, indep);
      const auto d_inter = core::compile(w.nl, spec, inter);
      const double p_indep = worst_path(d_indep);
      const double p_inter = worst_path(d_inter);
      gate_ok &= p_inter <= p_indep + 1e-9;

      for (const auto& r : d_inter.routing.negotiation_stats) {
        bench::json_line(
            "xctx_" + w.name + "_round" + std::to_string(r.round), r.round,
            r.seconds * 1e3, r.worst_critical_path,
            "\"conflicts\":" + std::to_string(r.conflicts) +
                ",\"worst_switches\":" +
                std::to_string(r.worst_critical_switches) +
                ",\"kept\":" + (r.kept ? "true" : "false"));
      }
      xt.add_row({w.name, fmt_double(p_indep, 1), fmt_double(p_inter, 1),
                  fmt_count(conflicts(d_indep)),
                  fmt_count(conflicts(d_inter)),
                  std::to_string(d_inter.routing.negotiation_stats.size())});

      // Determinism: the waves drain on one thread in queue order, so
      // worker count must not change a single bit of the compiled design.
      core::CompileOptions inter_serial = inter;
      inter_serial.router.num_threads = 1;
      const auto d_serial = core::compile(w.nl, spec, inter_serial);
      deterministic &= config::to_text(d_serial.full_bitstream) ==
                       config::to_text(d_inter.full_bitstream);
    }
    std::cout << "\ncross-context interleaved routing vs independent "
                 "(worst context critical path, shared wire nodes):\n";
    xt.print(std::cout);
    if (!gate_ok) {
      std::cout << "FAIL: interleaved routing finished with worse worst "
                   "slack than independent\n";
      return 1;
    }
    if (!deterministic) {
      std::cout << "FAIL: interleaved routing's bitstream varies with "
                   "router worker count\n";
      return 1;
    }
    std::cout << "interleaved routing never finished worse than "
                 "independent on "
              << xw.size() << " workload(s).\n\n";
  }

  if (!smoke) {
    // Detailed report for one design.
    const core::MCFPGA chip(workload::pipeline_workload(4, 6), spec);
    core::print_design_report(std::cout, chip.design());
  }
  return 0;
}
