// Tests for the compile daemon (src/serve/): the session FSM transition
// table (every event in every state), the wire protocol codecs including
// strict-numeric rejection with payload line numbers and fabrics of any
// context count, and the daemon's serving contracts — determinism
// (daemon replies byte-identical to direct CompileService compiles,
// repeated, concurrent and on an 8-context fabric), cache hits on
// repeat jobs, per-stage progress streaming, delta recompiles via base
// jobs, cooperative cancellation, deadline budgets, and clean teardown.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "cache/incremental.hpp"
#include "common/error.hpp"
#include "config/serialize.hpp"
#include "netlist/dfg.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"

namespace mcfpga::serve {
namespace {

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

netlist::MultiContextNetlist small_workload() {
  return workload::pipeline_workload(4, 8);
}

/// small_spec() widened to 8 contexts: both context counts move together,
/// as FabricSpec::validate demands.
arch::FabricSpec eight_context_spec() {
  arch::FabricSpec spec = small_spec();
  spec.num_contexts = 8;
  spec.logic_block.num_contexts = 8;
  return spec;
}

std::size_t pick_lut_node(const netlist::MultiContextNetlist& nl) {
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = 2; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
        netlist::NodeType::kLutOp) {
      return i;
    }
  }
  ADD_FAILURE() << "workload has no LUT node";
  return 0;
}

// ---------------------------------------------------------------------------
// Session FSM: the full transition table, every event in every state.

constexpr SessionState kAllStates[] = {
    SessionState::kIdle,      SessionState::kQueued,
    SessionState::kRunning,   SessionState::kStreaming,
    SessionState::kDone,      SessionState::kCancelled,
    SessionState::kFailed,
};
constexpr SessionEvent kAllEvents[] = {
    SessionEvent::kSubmit, SessionEvent::kStart,    SessionEvent::kProgress,
    SessionEvent::kFinish, SessionEvent::kCancel,   SessionEvent::kDeadline,
    SessionEvent::kFail,
};

/// Drives a fresh FSM into `state` through accepted transitions only.
SessionFsm fsm_at(SessionState state) {
  SessionFsm fsm;
  const auto step = [&](SessionEvent e) {
    ASSERT_TRUE(fsm.handle(e).accepted);
  };
  switch (state) {
    case SessionState::kIdle:
      break;
    case SessionState::kQueued:
      step(SessionEvent::kSubmit);
      break;
    case SessionState::kRunning:
      step(SessionEvent::kSubmit);
      step(SessionEvent::kStart);
      break;
    case SessionState::kStreaming:
      step(SessionEvent::kSubmit);
      step(SessionEvent::kStart);
      step(SessionEvent::kProgress);
      break;
    case SessionState::kDone:
      step(SessionEvent::kSubmit);
      step(SessionEvent::kStart);
      step(SessionEvent::kFinish);
      break;
    case SessionState::kCancelled:
      step(SessionEvent::kSubmit);
      step(SessionEvent::kCancel);
      break;
    case SessionState::kFailed:
      step(SessionEvent::kSubmit);
      step(SessionEvent::kFail);
      break;
  }
  EXPECT_EQ(fsm.state(), state);
  return fsm;
}

/// The expected target state, or `from` itself when the event must be
/// rejected — the single source of truth the exhaustive test checks.
SessionState expected_target(SessionState from, SessionEvent event,
                             bool& accepted) {
  accepted = true;
  switch (from) {
    case SessionState::kIdle:
      if (event == SessionEvent::kSubmit) return SessionState::kQueued;
      break;
    case SessionState::kQueued:
      switch (event) {
        case SessionEvent::kStart:
          return SessionState::kRunning;
        case SessionEvent::kCancel:
          return SessionState::kCancelled;
        case SessionEvent::kDeadline:
        case SessionEvent::kFail:
          return SessionState::kFailed;
        default:
          break;
      }
      break;
    case SessionState::kRunning:
    case SessionState::kStreaming:
      switch (event) {
        case SessionEvent::kProgress:
          return SessionState::kStreaming;
        case SessionEvent::kFinish:
          return SessionState::kDone;
        case SessionEvent::kCancel:
          return SessionState::kCancelled;
        case SessionEvent::kDeadline:
        case SessionEvent::kFail:
          return SessionState::kFailed;
        default:
          break;
      }
      break;
    case SessionState::kDone:
    case SessionState::kCancelled:
    case SessionState::kFailed:
      break;  // terminal: everything rejected
  }
  accepted = false;
  return from;
}

TEST(SessionFsm, ExhaustiveTransitionTable) {
  for (const SessionState from : kAllStates) {
    for (const SessionEvent event : kAllEvents) {
      SessionFsm fsm = fsm_at(from);
      bool want_accept = false;
      const SessionState want_to = expected_target(from, event, want_accept);
      const FsmResult r = fsm.handle(event);
      EXPECT_EQ(r.accepted, want_accept)
          << to_string(event) << " in " << to_string(from);
      EXPECT_EQ(r.from, from);
      EXPECT_EQ(r.to, want_to);
      EXPECT_EQ(fsm.state(), want_to);
      if (want_accept) {
        EXPECT_TRUE(r.reject_reason.empty());
      } else {
        // Rejections explain themselves (event + state by name).
        EXPECT_NE(r.reject_reason.find(to_string(event)), std::string::npos);
        EXPECT_NE(r.reject_reason.find(to_string(from)), std::string::npos);
      }
    }
  }
}

TEST(SessionFsm, TerminalPredicate) {
  for (const SessionState s : kAllStates) {
    const bool want = s == SessionState::kDone ||
                      s == SessionState::kCancelled ||
                      s == SessionState::kFailed;
    EXPECT_EQ(fsm_at(s).terminal(), want) << to_string(s);
  }
}

// ---------------------------------------------------------------------------
// Protocol codecs.

CompileRequest sample_request() {
  core::CompileOptions options;
  options.seed = 42;
  options.placer.timing_mode = true;
  options.router.timing_mode = true;
  options.router.queue_mode = route::QueueMode::kBucket;
  options.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  options.placer.num_threads = 3;
  options.router.num_threads = 2;
  CompileRequest request = ServeClient::make_request(
      "job-a", small_workload(), small_spec(), options, 1500, "base-job");
  return request;
}

TEST(ServeProtocol, RequestRoundTrip) {
  const CompileRequest request = sample_request();
  const Frame frame = frame_from_bytes(request_frame(request));
  ASSERT_EQ(frame.type, FrameType::kRequest);
  const CompileRequest back = decode_request(frame.payload);
  EXPECT_EQ(back.job, request.job);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.base_job, request.base_job);
  EXPECT_EQ(back.fabric.width, request.fabric.width);
  EXPECT_EQ(back.fabric.height, request.fabric.height);
  EXPECT_EQ(back.fabric.num_contexts, request.fabric.num_contexts);
  EXPECT_EQ(back.fabric.channel_width, request.fabric.channel_width);
  EXPECT_EQ(back.fabric.double_length_tracks,
            request.fabric.double_length_tracks);
  EXPECT_EQ(back.fabric.switch_impl, request.fabric.switch_impl);
  EXPECT_EQ(back.options.seed, request.options.seed);
  EXPECT_EQ(back.options.placer.timing_mode,
            request.options.placer.timing_mode);
  EXPECT_EQ(back.options.router.timing_mode,
            request.options.router.timing_mode);
  EXPECT_EQ(back.options.router.queue_mode,
            request.options.router.queue_mode);
  EXPECT_EQ(back.options.router.cross_context_mode,
            request.options.router.cross_context_mode);
  EXPECT_EQ(back.options.placer.num_threads,
            request.options.placer.num_threads);
  EXPECT_EQ(back.options.router.num_threads,
            request.options.router.num_threads);
  EXPECT_EQ(back.netlist_text, request.netlist_text);
  // The embedded netlist text survives framing byte-for-byte.
  EXPECT_EQ(config::netlist_to_text(
                config::netlist_from_text(back.netlist_text)),
            request.netlist_text);
}

TEST(ServeProtocol, EightContextRequestRoundTrips) {
  // The fabric line carries one context count; decoding must set the
  // logic block's count from it too, or every non-4-context fabric fails
  // validation on the daemon side.
  const CompileRequest request = ServeClient::make_request(
      "job-8", workload::pipeline_workload(8, 6), eight_context_spec());
  const CompileRequest back = decode_request(encode_request(request));
  EXPECT_EQ(back.fabric.num_contexts, 8u);
  EXPECT_EQ(back.fabric.logic_block.num_contexts, 8u);
  EXPECT_NO_THROW(back.fabric.validate());

  // A spec whose two counts differ could not be built, and the wire could
  // not carry it faithfully, so the encoder rejects it.
  CompileRequest mismatched = request;
  mismatched.fabric.logic_block.num_contexts = 4;
  EXPECT_THROW(encode_request(mismatched), InvalidArgument);
}

TEST(ServeProtocol, ReplyAndProgressRoundTrip) {
  CompileReply reply;
  reply.job = "job-a";
  reply.status = CompileReply::Status::kDone;
  reply.cache_hits = 8;
  reply.cache_misses = 3;
  reply.delta = true;
  reply.delta_fallback = "diff exceeds threshold";
  reply.critical_path = 12.625;
  reply.bitstream_text = "mcfpga-bitstream v1\ncontexts 1\nrows 0\n";
  const Frame frame = frame_from_bytes(reply_frame(reply));
  ASSERT_EQ(frame.type, FrameType::kReply);
  const CompileReply back = decode_reply(frame.payload);
  EXPECT_EQ(back.job, reply.job);
  EXPECT_EQ(back.status, reply.status);
  EXPECT_EQ(back.cache_hits, reply.cache_hits);
  EXPECT_EQ(back.cache_misses, reply.cache_misses);
  EXPECT_EQ(back.delta, reply.delta);
  EXPECT_EQ(back.delta_fallback, reply.delta_fallback);
  EXPECT_EQ(back.critical_path, reply.critical_path);
  EXPECT_EQ(back.bitstream_text, reply.bitstream_text);

  ProgressEvent event;
  event.job = "job-a";
  event.stage = "route";
  event.seconds = 0.03125;
  const Frame pf = frame_from_bytes(progress_frame(event));
  ASSERT_EQ(pf.type, FrameType::kProgress);
  const ProgressEvent pe = decode_progress(pf.payload);
  EXPECT_EQ(pe.job, event.job);
  EXPECT_EQ(pe.stage, event.stage);
  EXPECT_EQ(pe.seconds, event.seconds);
}

TEST(ServeProtocol, FrameRejectsCorruption) {
  const std::string good = progress_frame(
      ProgressEvent{"job", "place", 0.5});
  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    EXPECT_THROW(frame_from_bytes(bad), InvalidArgument);
  }
  {
    std::string bad = good;
    bad[4] = 9;  // version
    EXPECT_THROW(frame_from_bytes(bad), InvalidArgument);
  }
  {
    std::string bad = good;
    bad[5] = 7;  // frame type
    EXPECT_THROW(frame_from_bytes(bad), InvalidArgument);
  }
  {
    std::string bad = good.substr(0, good.size() - 1);  // short payload
    EXPECT_THROW(frame_from_bytes(bad), InvalidArgument);
  }
  EXPECT_THROW(frame_from_bytes(std::string("MCF")), InvalidArgument);
}

/// Replaces the first occurrence of `from` in the encoded request payload
/// and expects decode_request to throw with the payload line number.
void expect_request_rejected(const std::string& from, const std::string& to,
                             const std::string& line_tag) {
  std::string payload = encode_request(sample_request());
  const std::size_t pos = payload.find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  payload.replace(pos, from.size(), to);
  try {
    decode_request(payload);
    FAIL() << "accepted payload with '" << to << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, StrictNumericRejection) {
  // Trailing garbage, explicit '+', overflow: all rejected with the
  // payload line number (the same checked parsers as config/serialize).
  expect_request_rejected("deadline_ms 1500", "deadline_ms 12abc", "line 3");
  expect_request_rejected("deadline_ms 1500", "deadline_ms +4", "line 3");
  expect_request_rejected("deadline_ms 1500",
                          "deadline_ms 99999999999999999999", "line 3");
  expect_request_rejected("fabric 4 4", "fabric 4x 4", "line 5");
  expect_request_rejected("fabric 4 4", "fabric 0 4", "line 5");
  expect_request_rejected("options 42", "options -42", "line 6");
  expect_request_rejected("bucket", "fifo", "line 6");
  expect_request_rejected("interleaved", "sideways", "line 6");
  // The deleted round-based mode is just another unknown token.
  expect_request_rejected("interleaved", "negotiated", "line 6");
  expect_request_rejected("mcfpga-request v1", "mcfpga-request v2", "line 1");
}

TEST(ServeProtocol, RequestRejectsTruncatedBlob) {
  std::string payload = encode_request(sample_request());
  // Claim more netlist bytes than the payload carries.
  const std::size_t pos = payload.find("netlist_bytes ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = payload.find('\n', pos);
  payload.replace(pos, eol - pos, "netlist_bytes 999999");
  EXPECT_THROW(decode_request(payload), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Daemon serving contracts.

TEST(CompileDaemon, ReplyMatchesDirectCompileAndRepeatHitsCache) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  core::CompileOptions options;
  options.seed = 7;

  // The oracle: a direct, single-threaded CompileService compile.
  cache::CompileService direct;
  const std::string want = config::to_text(
      direct.compile(netlist, spec, options).design.full_bitstream);

  CompileDaemon daemon;
  ServeClient client(daemon);
  const std::uint64_t a =
      client.submit(ServeClient::make_request("job-a", netlist, spec, options));
  const ServeClient::Outcome first = client.wait(a);
  ASSERT_EQ(first.reply.status, CompileReply::Status::kDone);
  EXPECT_EQ(first.reply.bitstream_text, want);
  EXPECT_EQ(daemon.state(a), SessionState::kDone);

  // Every pipeline stage streamed exactly one progress tick, in order.
  const std::vector<std::string> stages = {
      "tech_map", "sharing", "plane_alloc", "cluster",
      "place",    "route",   "timing",      "program"};
  ASSERT_EQ(first.progress.size(), stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(first.progress[i].stage, stages[i]);
    EXPECT_EQ(first.progress[i].job, "job-a");
    EXPECT_GE(first.progress[i].seconds, 0.0);
  }

  // Same request again: served from the shared stage cache, still
  // byte-identical.
  const std::uint64_t b =
      client.submit(ServeClient::make_request("job-b", netlist, spec, options));
  const ServeClient::Outcome second = client.wait(b);
  ASSERT_EQ(second.reply.status, CompileReply::Status::kDone);
  EXPECT_EQ(second.reply.bitstream_text, want);
  EXPECT_GT(second.reply.cache_hits, 0u);
  EXPECT_EQ(second.reply.cache_misses, 0u);

  const CompileDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(CompileDaemon, EightContextFabricMatchesDirectCompile) {
  const auto netlist = workload::pipeline_workload(8, 6);
  const auto spec = eight_context_spec();
  const core::CompileOptions options;

  cache::CompileService direct;
  const std::string want = config::to_text(
      direct.compile(netlist, spec, options).design.full_bitstream);

  CompileDaemon daemon;
  ServeClient client(daemon);
  const ServeClient::Outcome out = client.wait(client.submit(
      ServeClient::make_request("job-8", netlist, spec, options)));
  ASSERT_EQ(out.reply.status, CompileReply::Status::kDone) << out.reply.error;
  EXPECT_EQ(out.reply.bitstream_text, want);
}

TEST(CompileDaemon, ConcurrentSessionsAreBitIdentical) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  core::CompileOptions options;
  options.seed = 11;

  cache::CompileService direct;
  const std::string want = config::to_text(
      direct.compile(netlist, spec, options).design.full_bitstream);

  DaemonOptions daemon_options;
  daemon_options.workers = 3;
  CompileDaemon daemon(daemon_options);
  ServeClient client(daemon);
  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(client.submit(ServeClient::make_request(
        "job-" + std::to_string(i), netlist, spec, options)));
  }
  for (const std::uint64_t id : jobs) {
    const ServeClient::Outcome out = client.wait(id);
    ASSERT_EQ(out.reply.status, CompileReply::Status::kDone);
    EXPECT_EQ(out.reply.bitstream_text, want);
  }
  EXPECT_EQ(daemon.stats().done, 6u);
}

TEST(CompileDaemon, ConcurrentRepeatsReportOnlyTheirOwnCacheLookups) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  DaemonOptions daemon_options;
  daemon_options.workers = 2;
  CompileDaemon daemon(daemon_options);
  ServeClient client(daemon);
  const std::uint64_t warm =
      client.submit(ServeClient::make_request("warm", netlist, spec, {}));
  ASSERT_EQ(client.wait(warm).reply.status, CompileReply::Status::kDone);

  // Two repeats in flight together: each reply counts its own eight
  // stage hits, never the other job's.
  const std::uint64_t a =
      client.submit(ServeClient::make_request("a", netlist, spec, {}));
  const std::uint64_t b =
      client.submit(ServeClient::make_request("b", netlist, spec, {}));
  for (const std::uint64_t id : {a, b}) {
    const ServeClient::Outcome out = client.wait(id);
    ASSERT_EQ(out.reply.status, CompileReply::Status::kDone);
    EXPECT_EQ(out.reply.cache_hits, 8u);
    EXPECT_EQ(out.reply.cache_misses, 0u);
  }
}

TEST(CompileDaemon, RetainedBytesStayBoundedAcrossManyJobs) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  DaemonOptions daemon_options;
  daemon_options.workers = 1;
  daemon_options.max_completed = 2;
  CompileDaemon daemon(daemon_options);
  ServeClient client(daemon);

  std::vector<std::uint64_t> jobs;
  for (std::size_t i = 0; i < 3 * daemon_options.max_completed; ++i) {
    const std::uint64_t id = client.submit(ServeClient::make_request(
        "job-" + std::to_string(i), netlist, spec, {}));
    jobs.push_back(id);
    // Until the stream is handed out, the daemon holds it.
    while (daemon.state(id) != SessionState::kDone) {
      std::this_thread::yield();
    }
    EXPECT_GT(daemon.stats().retained_bytes, 0u);
    ASSERT_EQ(client.wait(id).reply.status, CompileReply::Status::kDone);
    // Then only the job's final state is left: no request text, no frames.
    const CompileDaemon::Stats stats = daemon.stats();
    EXPECT_EQ(stats.retained_bytes, 0u) << "after job " << i;
    EXPECT_LE(stats.retained_designs, daemon_options.max_completed);
  }
  for (const std::uint64_t id : jobs) {
    EXPECT_EQ(daemon.state(id), SessionState::kDone);
  }
  EXPECT_THROW(daemon.wait(jobs.front()), InvalidArgument);
  EXPECT_FALSE(daemon.cancel(jobs.front()));
  EXPECT_EQ(daemon.stats().done, jobs.size());
}

TEST(CompileDaemon, DeltaRecompileFromBaseJob) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  core::CompileOptions options;
  options.seed = 5;
  const auto edited =
      workload::retable_edit(netlist, pick_lut_node(netlist), 123);

  cache::CompileService direct;
  const cache::Compiled base = direct.compile(netlist, spec, options);
  const cache::Compiled want =
      direct.compile_incremental(base, edited, options);

  CompileDaemon daemon;
  ServeClient client(daemon);
  const std::uint64_t a =
      client.submit(ServeClient::make_request("base", netlist, spec, options));
  ASSERT_EQ(client.wait(a).reply.status, CompileReply::Status::kDone);
  const std::uint64_t b = client.submit(ServeClient::make_request(
      "edit", edited, spec, options, 0, "base"));
  const ServeClient::Outcome out = client.wait(b);
  ASSERT_EQ(out.reply.status, CompileReply::Status::kDone);
  EXPECT_EQ(out.reply.delta, want.design.cache.delta);
  EXPECT_EQ(out.reply.delta_fallback, want.design.cache.delta_fallback);
  EXPECT_EQ(out.reply.bitstream_text,
            config::to_text(want.design.full_bitstream));
}

TEST(CompileDaemon, UnknownBaseJobFailsThatJobOnly) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  CompileDaemon daemon;
  ServeClient client(daemon);
  const std::uint64_t bad = client.submit(ServeClient::make_request(
      "edit", netlist, spec, {}, 0, "no-such-job"));
  const ServeClient::Outcome out = client.wait(bad);
  ASSERT_EQ(out.reply.status, CompileReply::Status::kFailed);
  EXPECT_NE(out.reply.error.find("no-such-job"), std::string::npos);
  EXPECT_EQ(daemon.state(bad), SessionState::kFailed);

  // The failure is the job's, not the daemon's: the next job serves fine.
  const std::uint64_t ok =
      client.submit(ServeClient::make_request("ok", netlist, spec, {}));
  EXPECT_EQ(client.wait(ok).reply.status, CompileReply::Status::kDone);
}

TEST(CompileDaemon, MalformedRequestRejectedAtSubmit) {
  CompileDaemon daemon;
  CompileRequest request = sample_request();
  request.base_job.clear();
  request.netlist_text = "mcfpga-netlist v1\ncontexts 2abc\n";
  EXPECT_THROW(daemon.submit_frame(request_frame(request)), InvalidArgument);
  EXPECT_EQ(daemon.stats().submitted, 0u);
}

TEST(CompileDaemon, CancelQueuedJobThenKeepServing) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  DaemonOptions options;
  options.workers = 1;  // one worker: the second job must sit queued
  CompileDaemon daemon(options);
  ServeClient client(daemon);
  const std::uint64_t running =
      client.submit(ServeClient::make_request("running", netlist, spec, {}));
  const std::uint64_t queued =
      client.submit(ServeClient::make_request("queued", netlist, spec, {}));
  EXPECT_TRUE(client.cancel(queued));
  EXPECT_FALSE(client.cancel(queued));  // already terminal: FSM rejects
  const ServeClient::Outcome cancelled = client.wait(queued);
  EXPECT_EQ(cancelled.reply.status, CompileReply::Status::kCancelled);
  EXPECT_TRUE(cancelled.progress.empty());
  EXPECT_EQ(daemon.state(queued), SessionState::kCancelled);
  EXPECT_EQ(client.wait(running).reply.status, CompileReply::Status::kDone);

  // The daemon keeps serving after a cancellation.
  const std::uint64_t after =
      client.submit(ServeClient::make_request("after", netlist, spec, {}));
  EXPECT_EQ(client.wait(after).reply.status, CompileReply::Status::kDone);
  const CompileDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.done, 2u);
}

TEST(CompileDaemon, CancelRunningJobStopsAtStageBoundary) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  CompileDaemon daemon;
  ServeClient client(daemon);
  const std::uint64_t id =
      client.submit(ServeClient::make_request("job", netlist, spec, {}));
  // Race cancel against the compile: both outcomes are legal, but the
  // session must land terminal and the daemon must keep serving.
  client.cancel(id);
  const ServeClient::Outcome out = client.wait(id);
  EXPECT_TRUE(out.reply.status == CompileReply::Status::kCancelled ||
              out.reply.status == CompileReply::Status::kDone);
  const std::uint64_t after =
      client.submit(ServeClient::make_request("after", netlist, spec, {}));
  EXPECT_EQ(client.wait(after).reply.status, CompileReply::Status::kDone);
}

TEST(CompileDaemon, DeadlineBudgetFailsTheJobNotTheDaemon) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  DaemonOptions options;
  options.workers = 1;
  CompileDaemon daemon(options);
  ServeClient client(daemon);
  // Occupy the only worker, then submit a job whose 1ms budget is long
  // gone by the time a worker (or the first stage boundary) sees it.
  const std::uint64_t occupant =
      client.submit(ServeClient::make_request("occupant", netlist, spec, {}));
  const std::uint64_t late = client.submit(
      ServeClient::make_request("late", netlist, spec, {}, /*deadline_ms=*/1));
  const ServeClient::Outcome out = client.wait(late);
  ASSERT_EQ(out.reply.status, CompileReply::Status::kFailed);
  EXPECT_NE(out.reply.error.find("deadline exceeded"), std::string::npos);
  EXPECT_EQ(daemon.state(late), SessionState::kFailed);
  EXPECT_EQ(client.wait(occupant).reply.status, CompileReply::Status::kDone);

  const std::uint64_t after =
      client.submit(ServeClient::make_request("after", netlist, spec, {}));
  EXPECT_EQ(client.wait(after).reply.status, CompileReply::Status::kDone);
  EXPECT_EQ(daemon.stats().failed, 1u);
}

TEST(CompileDaemon, StopCancelsQueuedAndRejectsNewSubmits) {
  const auto netlist = small_workload();
  const auto spec = small_spec();
  DaemonOptions options;
  options.workers = 1;
  CompileDaemon daemon(options);
  ServeClient client(daemon);
  const std::uint64_t running =
      client.submit(ServeClient::make_request("running", netlist, spec, {}));
  const std::uint64_t queued =
      client.submit(ServeClient::make_request("queued", netlist, spec, {}));
  daemon.stop();  // blocks until the pool drained
  EXPECT_TRUE(daemon.state(running) == SessionState::kDone ||
              daemon.state(running) == SessionState::kCancelled);
  EXPECT_EQ(daemon.state(queued), SessionState::kCancelled);
  EXPECT_THROW(client.submit(
                   ServeClient::make_request("late", netlist, spec, {})),
               InvalidArgument);
}

}  // namespace
}  // namespace mcfpga::serve
