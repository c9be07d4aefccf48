// B11 — incremental-recompile bench: cold compile vs content-addressed
// cache hit vs k-net-edit delta recompile (cache/incremental.hpp).
//
// Lanes (one BENCH_JSON line each, see bench_json.hpp):
//   incremental_cold          first compile through CompileService — every
//                             stage runs and the design is stored;
//   incremental_cache_hit     identical recompile — pure cache lookup.
//                             GATE: >= hit_gate x faster than cold and
//                             bit-identical bitstream;
//   incremental_delta_retable k sequential truth-table edits through
//                             compile_incremental.  GATE: every edit takes
//                             the delta path, mean edit >= delta_gate x
//                             faster than cold, and the final design's
//                             worst critical path and total wirelength are
//                             equal-or-better vs a from-scratch compile of
//                             the same edited netlist;
//   incremental_delta_rewire  k sequential fanin-retarget edits — the ECO
//                             placement + rip-up/re-route path.  GATE:
//                             every edit takes the delta path (matched
//                             clusters and terminals keep their sites, so
//                             an edit that renumbers clusters or orphans a
//                             primary input still qualifies) and QoR stays
//                             within a slack factor of from-scratch;
//                             speedup is reported but soft (re-routing
//                             work scales with the edit).
//
// Every compile runs on one placer and one router thread.  The delta path
// is single-threaded by construction, so the speedup gates compare the
// same single-threaded work on both sides instead of the host's core
// count; results are bit-identical for any thread count.
//
// Pass --smoke for a reduced CI-sized run; wall-clock gates relax to a
// smaller factor there because tiny workloads make the fixed per-compile
// overhead (graph build, timing, programming) a larger slice of cold time.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "cache/incremental.hpp"
#include "config/serialize.hpp"
#include "core/flow.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"

using namespace mcfpga;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double worst_critical_path(const core::CompiledDesign& design) {
  double worst = 0.0;
  for (const auto& s : design.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

std::size_t total_wirelength(const core::CompiledDesign& design) {
  std::size_t total = 0;
  for (const auto& s : design.context_stats) {
    total += s.wire_nodes_used;
  }
  return total;
}

// First LUT node at index >= min_index in context 0 — the same editable
// node every run, so edit sequences are reproducible.
std::size_t pick_lut_node(const netlist::MultiContextNetlist& nl,
                          std::size_t min_index = 2) {
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = min_index; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
        netlist::NodeType::kLutOp) {
      return i;
    }
  }
  std::cerr << "workload has no LUT node\n";
  std::exit(2);
}

std::string qor_extra(const core::CompiledDesign& design) {
  std::ostringstream os;
  os << "\"wirelength\":" << total_wirelength(design);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== B11: content-addressed cache + delta recompile ===\n\n";

  const std::size_t width = smoke ? 8 : 28;
  const std::size_t num_edits = 4;
  const double hit_gate = 5.0;
  const double delta_gate = smoke ? 2.0 : 5.0;
  // Rewire edits move real connectivity, so their QoR is allowed this
  // factor of slack vs from-scratch (retable edits get none).
  const double rewire_qor_slack = 1.5;

  const auto base_nl = workload::pipeline_workload(4, width);

  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;

  core::CompileOptions options;
  options.placer.timing_mode = true;
  options.placer.num_restarts = 4;  // quality-targeted compile effort
  options.router.timing_mode = true;
  options.placer.num_threads = 1;
  options.router.num_threads = 1;

  bool gate_ok = true;
  const auto fail_gate = [&gate_ok](const std::string& what) {
    std::cout << "GATE FAILED: " << what << "\n";
    gate_ok = false;
  };

  cache::CompileService service;

  // --- lane 1: cold compile --------------------------------------------------
  const auto t_cold = Clock::now();
  const cache::Compiled cold = service.compile(base_nl, spec, options);
  const double cold_ms = ms_since(t_cold);
  bench::json_line("incremental_cold", width, cold_ms,
                   worst_critical_path(cold.design), qor_extra(cold.design));

  // --- lane 2: cache hit -----------------------------------------------------
  // Best of 3 reps: the lane measures lookup cost, not scheduler noise.
  double hit_ms = 1e300;
  std::size_t hit_misses = 0;
  std::string hit_bitstream;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t_hit = Clock::now();
    const cache::Compiled hit = service.compile(base_nl, spec, options);
    hit_ms = std::min(hit_ms, ms_since(t_hit));
    hit_misses += hit.design.cache.misses;
    hit_bitstream = config::to_text(hit.design.full_bitstream);
  }
  const double hit_speedup = cold_ms / hit_ms;
  {
    std::ostringstream extra;
    extra << "\"speedup\":" << hit_speedup;
    bench::json_line("incremental_cache_hit", width, hit_ms,
                     worst_critical_path(cold.design), extra.str());
  }
  if (hit_misses != 0) {
    fail_gate("cache-hit recompile missed the design cache " +
              std::to_string(hit_misses) + " times (expected 0)");
  }
  if (hit_bitstream != config::to_text(cold.design.full_bitstream)) {
    fail_gate("cache-hit bitstream differs from the cold compile");
  }
  if (hit_speedup < hit_gate) {
    std::ostringstream os;
    os << "cache-hit speedup " << hit_speedup << "x < " << hit_gate << "x";
    fail_gate(os.str());
  }

  // --- lanes 3 and 4: k-edit delta recompiles --------------------------------
  struct Lane {
    const char* name;
    bool rewire;        // retable otherwise
    double qor_slack;   // multiplicative allowance vs from-scratch
    bool hard_speedup;  // gate on delta_gate (vs report-only)
  };
  // Every edit of either lane must take the delta path.
  const Lane lanes[] = {
      {"incremental_delta_retable", false, 1.0, true},
      {"incremental_delta_rewire", true, rewire_qor_slack, false},
  };

  for (const Lane& lane : lanes) {
    cache::Compiled current = cold;
    auto nl = base_nl;
    double edit_ms_total = 0.0;
    std::size_t deltas_taken = 0;
    std::string last_fallback;
    for (std::size_t k = 0; k < num_edits; ++k) {
      const std::size_t node = pick_lut_node(nl, 2 + 3 * k);
      const std::uint64_t seed = 0xb11 + k;
      const auto edited = lane.rewire
                              ? workload::rewire_edit(nl, node, seed)
                              : workload::retable_edit(nl, node, seed);
      const auto t_edit = Clock::now();
      current = service.compile_incremental(current, edited, options);
      edit_ms_total += ms_since(t_edit);
      if (current.design.cache.delta) {
        ++deltas_taken;
      } else {
        last_fallback = current.design.cache.delta_fallback;
      }
      nl = edited;
    }
    const double edit_ms = edit_ms_total / num_edits;
    const double speedup = cold_ms / edit_ms;

    // From-scratch reference for the final edited netlist, compiled
    // outside the cache so the comparison is against the plain pipeline.
    const core::CompiledDesign scratch = core::compile(nl, spec, options);
    const double delta_cp = worst_critical_path(current.design);
    const double scratch_cp = worst_critical_path(scratch);
    const std::size_t delta_wl = total_wirelength(current.design);
    const std::size_t scratch_wl = total_wirelength(scratch);

    {
      std::ostringstream extra;
      extra << "\"wirelength\":" << delta_wl << ",\"speedup\":" << speedup
            << ",\"edits\":" << num_edits
            << ",\"deltas_taken\":" << deltas_taken
            << ",\"scratch_cost\":" << scratch_cp
            << ",\"scratch_wirelength\":" << scratch_wl;
      bench::json_line(lane.name, width, edit_ms, delta_cp, extra.str());
    }

    if (deltas_taken < num_edits) {
      fail_gate(std::string(lane.name) + ": only " +
                std::to_string(deltas_taken) + "/" +
                std::to_string(num_edits) + " edits took the delta path" +
                (last_fallback.empty() ? "" : " (" + last_fallback + ")"));
    }
    if (delta_cp > scratch_cp * lane.qor_slack ||
        static_cast<double>(delta_wl) >
            static_cast<double>(scratch_wl) * lane.qor_slack) {
      std::ostringstream os;
      os << lane.name << ": QoR worse than from-scratch (critical path "
         << delta_cp << " vs " << scratch_cp << ", wirelength " << delta_wl
         << " vs " << scratch_wl << ", slack " << lane.qor_slack << "x)";
      fail_gate(os.str());
    }
    if (lane.hard_speedup && speedup < delta_gate) {
      std::ostringstream os;
      os << lane.name << ": mean edit speedup " << speedup << "x < "
         << delta_gate << "x vs cold (" << edit_ms << " ms vs " << cold_ms
         << " ms)";
      fail_gate(os.str());
    }
  }

  std::cout << "\n"
            << (gate_ok ? "all incremental-recompile gates hold"
                        : "incremental-recompile gates FAILED")
            << "\n";
  return gate_ok ? 0 : 1;
}
