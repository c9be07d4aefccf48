// B13: compile-as-a-service daemon (serve/daemon.hpp).
//
// Lanes:
//   1. serve_cold      — first job through the daemon: full pipeline over
//                        the wire, progress frames counted.
//   2. serve_repeat    — the same netlist as a second job: served from
//                        the shared design cache (1 hit, 0 misses),
//                        byte-identical to both the first job and a direct
//                        CompileService compile (the determinism gate).
//   3. serve_concurrent— N sessions submitted at once on a multi-worker
//                        daemon: every reply byte-identical to the direct
//                        compile, ordering-independent.
//   4. serve_cancel    — one queued job cancelled on a 1-worker daemon:
//                        terminal Cancelled, daemon keeps serving.
//   5. serve_delta     — an edited netlist delta-recompiled via base_job.
//
// Counters (hits, misses, progress frames, statuses) are deterministic
// for the pinned seed; wall_ms is informational.  Pass --smoke for the
// CI-sized run pinned in BENCH_SERVE.json.
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "cache/incremental.hpp"
#include "config/serialize.hpp"
#include "netlist/dfg.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"

namespace mcfpga {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::size_t pick_lut_node(const netlist::MultiContextNetlist& nl) {
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = 2; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
        netlist::NodeType::kLutOp) {
      return i;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mcfpga

int main(int argc, char** argv) {
  using namespace mcfpga;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== B13: compile-as-a-service daemon ===\n\n";

  const std::size_t width = smoke ? 8 : 24;
  const std::size_t concurrent_jobs = smoke ? 4 : 8;

  const auto nl = workload::pipeline_workload(4, width);
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  core::CompileOptions options;
  options.seed = 7;
  options.placer.timing_mode = true;
  options.router.timing_mode = true;

  bool gate_ok = true;
  const auto fail_gate = [&gate_ok](const std::string& what) {
    std::cout << "GATE FAILED: " << what << "\n";
    gate_ok = false;
  };

  // The determinism oracle: a direct, daemon-free compile.
  cache::CompileService direct;
  const cache::Compiled oracle = direct.compile(nl, spec, options);
  const std::string oracle_text =
      config::to_text(oracle.design.full_bitstream);

  serve::DaemonOptions daemon_options;
  daemon_options.workers = 2;
  // Lanes 1-3 complete jobs before lane 5 delta-recompiles from "cold";
  // keep them all retained (the default FIFO bound would evict it).
  daemon_options.max_completed = 2 + concurrent_jobs + 2;
  serve::CompileDaemon daemon(daemon_options);
  serve::ServeClient client(daemon);

  // --- lane 1: cold job over the wire --------------------------------------
  const auto t_cold = Clock::now();
  const std::uint64_t cold_id = client.submit(
      serve::ServeClient::make_request("cold", nl, spec, options));
  const serve::ServeClient::Outcome cold = client.wait(cold_id);
  const double cold_ms = ms_since(t_cold);
  {
    std::ostringstream extra;
    extra << "\"misses\":" << cold.reply.cache_misses
          << ",\"progress_frames\":" << cold.progress.size() << ",\"done\":"
          << (cold.reply.status == serve::CompileReply::Status::kDone ? 1
                                                                      : 0);
    bench::json_line("serve_cold", width, cold_ms, cold.reply.critical_path,
                     extra.str());
  }
  if (cold.reply.bitstream_text != oracle_text) {
    fail_gate("daemon cold bitstream differs from the direct compile");
  }

  // --- lane 2: repeat job = cache hit --------------------------------------
  const auto t_rep = Clock::now();
  const std::uint64_t rep_id = client.submit(
      serve::ServeClient::make_request("repeat", nl, spec, options));
  const serve::ServeClient::Outcome repeat = client.wait(rep_id);
  const double rep_ms = ms_since(t_rep);
  {
    std::ostringstream extra;
    extra << "\"hits\":" << repeat.reply.cache_hits
          << ",\"misses\":" << repeat.reply.cache_misses
          << ",\"speedup\":" << (rep_ms > 0.0 ? cold_ms / rep_ms : 0.0);
    bench::json_line("serve_repeat", width, rep_ms,
                     repeat.reply.critical_path, extra.str());
  }
  if (repeat.reply.cache_misses != 0) {
    fail_gate("repeat job missed the design cache " +
              std::to_string(repeat.reply.cache_misses) + " times");
  }
  if (repeat.reply.bitstream_text != oracle_text) {
    fail_gate("repeat bitstream differs from the direct compile");
  }

  // --- lane 3: concurrent sessions -----------------------------------------
  const auto t_conc = Clock::now();
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < concurrent_jobs; ++i) {
    ids.push_back(client.submit(serve::ServeClient::make_request(
        "conc-" + std::to_string(i), nl, spec, options)));
  }
  std::size_t identical = 0;
  for (const std::uint64_t id : ids) {
    const serve::ServeClient::Outcome out = client.wait(id);
    identical += out.reply.bitstream_text == oracle_text ? 1 : 0;
  }
  {
    std::ostringstream extra;
    extra << "\"jobs\":" << concurrent_jobs
          << ",\"identical\":" << identical;
    bench::json_line("serve_concurrent", width, ms_since(t_conc),
                     static_cast<double>(identical), extra.str());
  }
  if (identical != concurrent_jobs) {
    fail_gate("concurrent sessions were not bit-identical to the oracle");
  }

  // --- lane 4: cancellation on a saturated daemon --------------------------
  {
    serve::DaemonOptions one;
    one.workers = 1;
    serve::CompileDaemon small(one);
    serve::ServeClient sc(small);
    const auto t_cancel = Clock::now();
    const std::uint64_t busy = sc.submit(
        serve::ServeClient::make_request("busy", nl, spec, options));
    const std::uint64_t victim = sc.submit(
        serve::ServeClient::make_request("victim", nl, spec, options));
    const bool accepted = sc.cancel(victim);
    const serve::ServeClient::Outcome cancelled = sc.wait(victim);
    const serve::ServeClient::Outcome kept = sc.wait(busy);
    const std::uint64_t after = sc.submit(
        serve::ServeClient::make_request("after", nl, spec, options));
    const serve::ServeClient::Outcome served_after = sc.wait(after);
    const bool ok =
        accepted &&
        cancelled.reply.status == serve::CompileReply::Status::kCancelled &&
        kept.reply.status == serve::CompileReply::Status::kDone &&
        served_after.reply.status == serve::CompileReply::Status::kDone &&
        served_after.reply.bitstream_text == oracle_text;
    std::ostringstream extra;
    extra << "\"cancelled\":" << small.stats().cancelled
          << ",\"done\":" << small.stats().done << ",\"ok\":" << (ok ? 1 : 0);
    bench::json_line("serve_cancel", width, ms_since(t_cancel),
                     static_cast<double>(small.stats().cancelled),
                     extra.str());
    if (!ok) {
      fail_gate("cancellation lane: wrong statuses or a corrupted daemon");
    }
  }

  // --- lane 5: delta recompile via base_job --------------------------------
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 123);
  const cache::Compiled want_delta =
      direct.compile_incremental(oracle, edited, options);
  const auto t_delta = Clock::now();
  const std::uint64_t delta_id = client.submit(serve::ServeClient::make_request(
      "delta", edited, spec, options, 0, "cold"));
  const serve::ServeClient::Outcome delta = client.wait(delta_id);
  {
    std::ostringstream extra;
    extra << "\"delta\":" << (delta.reply.delta ? 1 : 0) << ",\"done\":"
          << (delta.reply.status == serve::CompileReply::Status::kDone ? 1
                                                                       : 0);
    bench::json_line("serve_delta", width, ms_since(t_delta),
                     delta.reply.critical_path, extra.str());
  }
  if (delta.reply.bitstream_text !=
      config::to_text(want_delta.design.full_bitstream)) {
    fail_gate("daemon delta bitstream differs from the direct delta");
  }
  if (delta.reply.delta != want_delta.design.cache.delta) {
    fail_gate("daemon delta flag differs from the direct delta");
  }

  daemon.stop();
  std::cout << (gate_ok ? "\nall gates passed\n" : "\nGATES FAILED\n");
  return gate_ok ? 0 : 1;
}
