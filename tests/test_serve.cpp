// Tests for the compile daemon (src/serve/): the session FSM transition
// table (every event in every state), the wire protocol codecs including
// strict-numeric rejection with payload line numbers and fabrics of any
// context count, and the daemon's serving contracts — determinism
// (daemon replies byte-identical to direct CompileService compiles,
// repeated, concurrent and on an 8-context fabric), cache hits on
// repeat jobs, per-stage progress streaming, delta recompiles via base
// jobs, cooperative cancellation, deadline budgets, and clean teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
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

#include "field_flips.hpp"

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
  EXPECT_TRUE(back.fabric == request.fabric);
  EXPECT_TRUE(back.options == request.options);
  EXPECT_EQ(back.netlist_text, request.netlist_text);
  // The embedded netlist text survives framing byte-for-byte.
  EXPECT_EQ(config::netlist_to_text(
                config::netlist_from_text(back.netlist_text)),
            request.netlist_text);
}

TEST(ServeProtocol, EveryFieldFlipRoundTrips) {
  // Each single-field change of the fabric or the options, worker counts
  // included, survives the wire: the request carries every listed field.
  const CompileRequest request = sample_request();
  std::size_t flips = 0;
  fieldtest::for_each_field_flip(
      request.fabric, request.options,
      [&](const fieldtest::FieldFlip& flip) {
        ++flips;
        CompileRequest flipped = request;
        flipped.fabric = flip.spec;
        flipped.options = flip.options;
        const CompileRequest back = decode_request(encode_request(flipped));
        EXPECT_TRUE(back.fabric == flipped.fabric) << flip.name;
        EXPECT_TRUE(back.options == flipped.options) << flip.name;
      });
  EXPECT_EQ(flips, 30u);
}

TEST(ServeProtocol, EightContextRequestRoundTrips) {
  // Both context counts are fields of their own on the wire.
  const CompileRequest request = ServeClient::make_request(
      "job-8", workload::pipeline_workload(8, 6), eight_context_spec());
  const CompileRequest back = decode_request(encode_request(request));
  EXPECT_EQ(back.fabric.num_contexts, 8u);
  EXPECT_EQ(back.fabric.logic_block.num_contexts, 8u);
  EXPECT_NO_THROW(back.fabric.validate());

  // A spec whose two counts differ crosses the wire as it is, and the
  // compile's FabricSpec::validate rejects it, as for a direct compile.
  CompileRequest mismatched = request;
  mismatched.fabric.logic_block.num_contexts = 4;
  const CompileRequest mismatched_back =
      decode_request(encode_request(mismatched));
  EXPECT_TRUE(mismatched_back.fabric == mismatched.fabric);
  EXPECT_THROW(mismatched_back.fabric.validate(), InvalidArgument);
}

TEST(ServeProtocol, EncoderRejectsNonFiniteDoubles) {
  // The decoder reads finite doubles only, so the encoder never writes
  // another.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    CompileRequest request = sample_request();
    request.options.delay.se_delay = bad;
    EXPECT_THROW(encode_request(request), InvalidArgument) << bad;
    EXPECT_THROW(request_frame(request), InvalidArgument) << bad;
  }
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
  // Bytes past the declared payload are rejected, not dropped.
  EXPECT_THROW(frame_from_bytes(good + "x"), InvalidArgument);
  EXPECT_THROW(frame_from_bytes(request_frame(sample_request()) + "garbage"),
               InvalidArgument);
}

/// The pinned sample frames below, built field by field (every wire field
/// set, so a changed default cannot move the bytes).
CompileReply pinned_reply() {
  CompileReply reply;
  reply.job = "job-a";
  reply.status = CompileReply::Status::kDone;
  reply.cache_hits = 8;
  reply.cache_misses = 3;
  reply.delta = true;
  reply.delta_fallback = "diff exceeds threshold";
  reply.critical_path = 12.625;
  reply.bitstream_text =
      "mcfpga-bitstream v1\ncontexts 4\nrows 2\n"
      "sb(0,0).p0 routing-switch 0101\nlb(1,2).out0[7] lut-bit 1111\n";
  return reply;
}

CompileRequest pinned_request() {
  CompileRequest request;
  request.job = "job-b";
  request.deadline_ms = 1500;
  request.base_job = "base-job";
  arch::FabricSpec& f = request.fabric;
  f.width = 4;
  f.height = 5;
  f.num_contexts = 4;
  f.logic_block.base_inputs = 4;
  f.logic_block.num_contexts = 4;
  f.logic_block.num_outputs = 2;
  f.logic_block.control = lut::SizeControl::kLocal;
  f.channel_width = 10;
  f.double_length_tracks = 4;
  f.switch_impl = arch::SwitchImpl::kRcm;
  core::CompileOptions& o = request.options;
  o.seed = 42;
  o.placer.seed = 0;
  o.placer.sweeps = 64;
  o.placer.initial_temperature_factor = 0.1;
  o.placer.incremental = true;
  o.placer.num_restarts = 1;
  o.placer.num_threads = 3;
  o.placer.timing_mode = true;
  o.router.prefer_double_length = true;
  o.router.num_threads = 2;
  o.router.timing_mode = false;
  o.router.criticality_exponent_schedule = {1.0, 0.5, 4.0};
  o.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  o.router.queue_mode = route::QueueMode::kBucket;
  o.delay.se_delay = 1.25;
  o.delay.lut_delay = 2.0;
  o.auto_size = true;
  o.closure_iterations = 1;
  request.netlist_text = "mcfpga-netlist v1\ncontexts 2\n";
  return request;
}

TEST(ServeProtocol, FramesMatchPinnedBytes) {
  // The wire, byte for byte: a header (magic, version 1, type, u32
  // little-endian payload length) and the line-oriented payload.
  const std::string reply =
      std::string("MCFS\x01\x02\x05\x01\x00\x00", 10) +
      "mcfpga-reply v1\n"
      "job job-a\n"
      "status done\n"
      "error_bytes 0\n"
      "\n"
      "hits 8\n"
      "misses 3\n"
      "delta 1\n"
      "fallback_bytes 22\n"
      "diff exceeds threshold\n"
      "critical_path 12.625\n"
      "bitstream_bytes 98\n"
      "mcfpga-bitstream v1\n"
      "contexts 4\n"
      "rows 2\n"
      "sb(0,0).p0 routing-switch 0101\n"
      "lb(1,2).out0[7] lut-bit 1111\n"
      "\n"
      "end\n";
  EXPECT_EQ(reply_frame(pinned_reply()), reply);
  EXPECT_EQ(encode_frame(FrameType::kReply, encode_reply(pinned_reply())),
            reply);

  // The request payload is v2: one line per field of core/fields.hpp's
  // list, in list order.
  const std::string request =
      std::string("MCFS\x01\x01\x7b\x03\x00\x00", 10) +
      "mcfpga-request v2\n"
      "job job-b\n"
      "deadline_ms 1500\n"
      "base base-job\n"
      "fabric.width 4\n"
      "fabric.height 5\n"
      "fabric.num_contexts 4\n"
      "fabric.logic_block.base_inputs 4\n"
      "fabric.logic_block.num_contexts 4\n"
      "fabric.logic_block.num_outputs 2\n"
      "fabric.logic_block.control local\n"
      "fabric.channel_width 10\n"
      "fabric.double_length_tracks 4\n"
      "fabric.switch_impl rcm\n"
      "seed 42\n"
      "placer.seed 0\n"
      "placer.sweeps 64\n"
      "placer.initial_temperature_factor 0.10000000000000001\n"
      "placer.incremental 1\n"
      "placer.num_restarts 1\n"
      "placer.num_threads 3\n"
      "placer.timing_mode 1\n"
      "router.prefer_double_length 1\n"
      "router.num_threads 2\n"
      "router.timing_mode 0\n"
      "router.criticality_exponent_schedule.start 1\n"
      "router.criticality_exponent_schedule.step 0.5\n"
      "router.criticality_exponent_schedule.max 4\n"
      "router.cross_context_mode interleaved\n"
      "router.queue_mode bucket\n"
      "delay.se_delay 1.25\n"
      "delay.lut_delay 2\n"
      "auto_size 1\n"
      "closure_iterations 1\n"
      "netlist_bytes 29\n"
      "mcfpga-netlist v1\n"
      "contexts 2\n"
      "\n"
      "end\n";
  EXPECT_EQ(request_frame(pinned_request()), request);
  EXPECT_EQ(
      encode_frame(FrameType::kRequest, encode_request(pinned_request())),
      request);

  const std::string progress =
      std::string("MCFS\x01\x03\x49\x00\x00\x00", 10) +
      "mcfpga-progress v1\n"
      "job job-a\n"
      "stage route\n"
      "seconds 0.10000000000000001\n"
      "end\n";
  EXPECT_EQ(progress_frame(ProgressEvent{"job-a", "route", 0.1}), progress);
}

TEST(ServeProtocol, ReplyErrorAfterMultiLineBlobsNamesItsLine) {
  CompileReply reply = pinned_reply();
  reply.error = "first\nsecond";  // blobs on several lines each
  std::string payload = encode_reply(reply);
  const std::string tail = "\nend\n";
  ASSERT_EQ(payload.compare(payload.size() - tail.size(), tail.size(), tail),
            0);
  // 'end' is the last line: its number is the payload's newline count.
  // Header, job, status, error_bytes, 2 error lines, hits, misses, delta,
  // fallback_bytes + 1 line, critical_path, bitstream_bytes + 5 lines,
  // the blob's closing newline, end: 20.
  const auto end_line = static_cast<std::size_t>(
      std::count(payload.begin(), payload.end(), '\n'));
  ASSERT_EQ(end_line, 20u);
  payload.replace(payload.size() - 4, 3, "fin");
  try {
    decode_reply(payload);
    FAIL() << "accepted a reply without its 'end' line";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("payload line 20:"),
              std::string::npos)
        << e.what();
  }
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
  // Trailing garbage, explicit '+', overflow, unknown words and non-finite
  // doubles: all rejected with the payload line number (the same checked
  // parsers as config/serialize).  Lines 5-14 are the fabric's fields,
  // 15-34 the options', in core/fields.hpp's order.
  expect_request_rejected("deadline_ms 1500", "deadline_ms 12abc", "line 3");
  expect_request_rejected("deadline_ms 1500", "deadline_ms +4", "line 3");
  expect_request_rejected("deadline_ms 1500",
                          "deadline_ms 99999999999999999999", "line 3");
  expect_request_rejected("fabric.width 4\n", "fabric.width 4x\n", "line 5");
  expect_request_rejected("fabric.width 4\n", "fabric.width -4\n", "line 5");
  expect_request_rejected("fabric.width 4\n", "fabric.width\n", "line 5");
  expect_request_rejected("control local", "control medium", "line 11");
  expect_request_rejected("fabric.channel_width 10",
                          "fabric.channel_width 99999999999999999999",
                          "line 12");
  expect_request_rejected("seed 42", "seed -42", "line 15");
  expect_request_rejected("placer.incremental 1", "placer.incremental 2",
                          "line 19");
  expect_request_rejected("placer.incremental 1", "placer.incremental true",
                          "line 19");
  expect_request_rejected("schedule.max 1\n", "schedule.max inf\n",
                          "line 28");
  expect_request_rejected("interleaved", "sideways", "line 29");
  // The deleted round-based mode is just another unknown word.
  expect_request_rejected("interleaved", "negotiated", "line 29");
  expect_request_rejected("bucket", "fifo", "line 30");
  expect_request_rejected("delay.lut_delay 2\n", "delay.lut_delay nan\n",
                          "line 32");
  expect_request_rejected("delay.lut_delay 2\n", "delay.lut_delay -inf\n",
                          "line 32");
  // The v1 request (a fabric and an options line) and any later tag.
  expect_request_rejected("mcfpga-request v2", "mcfpga-request v1", "line 1");
  expect_request_rejected("mcfpga-request v2", "mcfpga-request v3", "line 1");
}

TEST(ServeProtocol, DecodersAcceptOnlyCanonicalPayloads) {
  // A decoded payload re-encodes to its own bytes, so every form the
  // encoder never writes is an error, with its line number.
  expect_request_rejected("deadline_ms 1500", "deadline_ms 01500", "line 3");
  expect_request_rejected("fabric.width 4\n", "fabric.width  4\n", "line 5");
  expect_request_rejected("fabric.width 4\n", "fabric.width 4 \n", "line 5");
  expect_request_rejected("fabric.width 4\n", "fabric.width\t4\n", "line 5");
  expect_request_rejected("seed 42", "seed 042", "line 15");
  expect_request_rejected("job job-a", "job job-a\t", "line 2");
  expect_request_rejected("netlist_bytes ", "netlist_bytes 0", "line 35");
  // Doubles only as %.17g writes them.
  expect_request_rejected("factor 0.10000000000000001", "factor 0.1",
                          "line 18");
  expect_request_rejected("delay.se_delay 1\n", "delay.se_delay 1e0\n",
                          "line 31");
  expect_request_rejected("delay.se_delay 1\n", "delay.se_delay 1.0\n",
                          "line 31");
  // Exactly the list's names, in its order: a swapped pair, a dropped
  // line, a line without its name, and a name not on the list.
  expect_request_rejected("fabric.width 4\nfabric.height 4\n",
                          "fabric.height 4\nfabric.width 4\n", "line 5");
  expect_request_rejected("fabric.double_length_tracks 4\n", "", "line 13");
  expect_request_rejected("fabric.double_length_tracks 4\n", "4\n",
                          "line 13");
  expect_request_rejected("placer.incremental 1\n",
                          "placer.cooling 0.90000000000000002\n"
                          "placer.incremental 1\n",
                          "line 19");
  expect_request_rejected("\nseed 42\n", "\noptions.seed 42\n", "line 15");

  const std::string request = encode_request(sample_request());
  EXPECT_NO_THROW(decode_request(request));
  EXPECT_THROW(decode_request(request + "x"), InvalidArgument);
  EXPECT_THROW(decode_request(request + "\n"), InvalidArgument);
  EXPECT_THROW(decode_request(request.substr(0, request.size() - 1)),
               InvalidArgument);
  std::string spaced_end = request;
  spaced_end.insert(spaced_end.size() - 1, " ");  // "end \n"
  EXPECT_THROW(decode_request(spaced_end), InvalidArgument);

  const std::string reply = encode_reply(pinned_reply());
  for (const char* other : {"12.6250", "1.2625e1", "12.625 "}) {
    std::string bad = reply;
    const std::size_t at = bad.find("12.625");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 6, other);
    EXPECT_THROW(decode_reply(bad), InvalidArgument) << other;
  }
}

/// Replaces the `<key> <n>` line of `payload` and expects `decode` to throw
/// InvalidArgument naming `line_tag`.
template <typename Decode>
void expect_blob_rejected(std::string payload, const std::string& key,
                          const std::string& count,
                          const std::string& line_tag, Decode&& decode) {
  const std::size_t pos = payload.find(key + " ");
  ASSERT_NE(pos, std::string::npos) << key;
  const std::size_t eol = payload.find('\n', pos);
  payload.replace(pos, eol - pos, key + " " + count);
  try {
    decode(payload);
    FAIL() << "accepted " << key << " " << count;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, RequestRejectsTruncatedBlob) {
  // Claim more blob bytes than the payload carries, up to lengths no
  // allocation could hold: each is rejected, naming the payload line,
  // before anything is allocated.
  const std::string request = encode_request(sample_request());
  const std::string reply = encode_reply(pinned_reply());
  for (const char* count :
       {"999999", "1000000000000", "18446744073709551615"}) {
    expect_blob_rejected(request, "netlist_bytes", count, "line 35",
                         [](const std::string& p) { decode_request(p); });
    expect_blob_rejected(reply, "bitstream_bytes", count, "line 12",
                         [](const std::string& p) { decode_reply(p); });
  }
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

  // Same request again: served from the shared design cache, still
  // byte-identical, and its progress is the hit's single cache step.
  const std::uint64_t b =
      client.submit(ServeClient::make_request("job-b", netlist, spec, options));
  const ServeClient::Outcome second = client.wait(b);
  ASSERT_EQ(second.reply.status, CompileReply::Status::kDone);
  EXPECT_EQ(second.reply.bitstream_text, want);
  EXPECT_EQ(second.reply.cache_hits, 1u);
  EXPECT_EQ(second.reply.cache_misses, 0u);
  ASSERT_EQ(second.progress.size(), 1u);
  EXPECT_EQ(second.progress[0].stage, "cache");
  EXPECT_EQ(second.progress[0].job, "job-b");

  const CompileDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(CompileDaemon, ReplyEqualsDirectCompileForEveryRequestField) {
  // Fields the v1 request did not carry: each must reach the daemon's
  // compile, so each reply equals a direct compile of exactly what the
  // request says.
  const auto netlist = workload::pipeline_workload(4, 12);
  arch::FabricSpec spec;
  spec.width = 8;
  spec.height = 8;
  struct Case {
    std::string field;
    arch::FabricSpec spec;
    core::CompileOptions options;
  };
  std::vector<Case> cases(4, Case{"", spec, {}});
  cases[0].field = "placer.sweeps";
  cases[0].options.placer.sweeps = 8;
  cases[1].field = "placer.num_restarts";
  cases[1].options.placer.num_restarts = 3;
  cases[2].field = "router.prefer_double_length";
  cases[2].options.router.prefer_double_length = false;
  cases[3].field = "fabric.logic_block.num_outputs";
  cases[3].spec.logic_block.num_outputs = 3;

  cache::CompileService direct;
  CompileDaemon daemon;
  ServeClient client(daemon);
  for (const Case& c : cases) {
    const std::string want = config::to_text(
        direct.compile(netlist, c.spec, c.options).design.full_bitstream);
    const ServeClient::Outcome out =
        client.wait(client.submit(ServeClient::make_request(
            "job-" + c.field, netlist, c.spec, c.options)));
    ASSERT_EQ(out.reply.status, CompileReply::Status::kDone)
        << c.field << ": " << out.reply.error;
    EXPECT_EQ(out.reply.bitstream_text, want) << c.field;
  }
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

  // Two repeats in flight together: each reply counts its own hit, never
  // the other job's.
  const std::uint64_t a =
      client.submit(ServeClient::make_request("a", netlist, spec, {}));
  const std::uint64_t b =
      client.submit(ServeClient::make_request("b", netlist, spec, {}));
  for (const std::uint64_t id : {a, b}) {
    const ServeClient::Outcome out = client.wait(id);
    ASSERT_EQ(out.reply.status, CompileReply::Status::kDone);
    EXPECT_EQ(out.reply.cache_hits, 1u);
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

TEST(CompileDaemon, ResubmittedJobNameKeepsOtherDeltaBases) {
  // Two retained designs: "a", then "b" twice.  The second "b" replaces
  // the first instead of pushing "a" out, so "a" still serves as a base.
  const auto netlist = small_workload();
  const auto other = workload::pipeline_workload(4, 6);
  const auto spec = small_spec();
  core::CompileOptions options;
  options.seed = 5;
  const auto edited =
      workload::retable_edit(netlist, pick_lut_node(netlist), 123);

  cache::CompileService direct;
  const cache::Compiled base = direct.compile(netlist, spec, options);
  const cache::Compiled want =
      direct.compile_incremental(base, edited, options);

  DaemonOptions daemon_options;
  daemon_options.workers = 1;
  daemon_options.max_completed = 2;
  CompileDaemon daemon(daemon_options);
  ServeClient client(daemon);
  for (const auto& [job, nl] :
       {std::pair{"a", &netlist}, std::pair{"b", &other},
        std::pair{"b", &other}}) {
    const std::uint64_t id =
        client.submit(ServeClient::make_request(job, *nl, spec, options));
    ASSERT_EQ(client.wait(id).reply.status, CompileReply::Status::kDone)
        << job;
  }
  EXPECT_EQ(daemon.stats().retained_designs, 2u);
  const std::uint64_t delta = client.submit(ServeClient::make_request(
      "edit", edited, spec, options, 0, "a"));
  const ServeClient::Outcome out = client.wait(delta);
  ASSERT_EQ(out.reply.status, CompileReply::Status::kDone) << out.reply.error;
  EXPECT_EQ(out.reply.delta, want.design.cache.delta);
  EXPECT_EQ(out.reply.bitstream_text,
            config::to_text(want.design.full_bitstream));
  EXPECT_LE(daemon.stats().retained_designs, 2u);
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

TEST(CompileDaemon, DeltaOnAnotherFabricFailsThatJobOnly) {
  // A delta recompile keeps its base's fabric: a base_job request whose
  // fabric lines differ fails instead of compiling on the base's fabric.
  const auto netlist = small_workload();
  const auto spec = small_spec();
  const auto edited =
      workload::retable_edit(netlist, pick_lut_node(netlist), 123);
  cache::CompileService direct;
  const cache::Compiled want =
      direct.compile_incremental(direct.compile(netlist, spec, {}), edited, {});

  CompileDaemon daemon;
  ServeClient client(daemon);
  ASSERT_EQ(client.wait(client.submit(ServeClient::make_request(
                            "base", netlist, spec, {})))
                .reply.status,
            CompileReply::Status::kDone);
  arch::FabricSpec wider = spec;
  wider.channel_width += 2;
  const ServeClient::Outcome out = client.wait(client.submit(
      ServeClient::make_request("edit", edited, wider, {}, 0, "base")));
  ASSERT_EQ(out.reply.status, CompileReply::Status::kFailed);
  EXPECT_NE(out.reply.error.find("fabric differs from base job 'base'"),
            std::string::npos)
      << out.reply.error;

  // The same edit on the base's fabric is the direct delta recompile.
  const ServeClient::Outcome ok = client.wait(client.submit(
      ServeClient::make_request("edit", edited, spec, {}, 0, "base")));
  ASSERT_EQ(ok.reply.status, CompileReply::Status::kDone) << ok.reply.error;
  EXPECT_EQ(ok.reply.delta, want.design.cache.delta);
  EXPECT_EQ(ok.reply.bitstream_text,
            config::to_text(want.design.full_bitstream));
}

TEST(CompileDaemon, InvalidLogicBlockSizesFailTheJob) {
  // Sizes outside the MCMG-LUT's bounds would size tables out of range (a
  // shift by 64, a pin count that wraps): they cross the wire as they are
  // and fail the job in FabricSpec::validate, before any stage runs.
  const auto netlist = small_workload();
  const std::size_t wraps = (std::size_t{1} << 60) + 1;  // x 16 cells
  struct Case {
    std::size_t base_inputs;
    std::size_t num_outputs;
    const char* error;
  };
  const Case cases[] = {
      {0, 2, "base LUT inputs"},  {9, 2, "base LUT inputs"},
      {62, 2, "base LUT inputs"}, {64, 2, "base LUT inputs"},
      {4, 0, "output count"},     {4, 9, "output count"},
      {4, wraps, "output count"},
  };
  CompileDaemon daemon;
  ServeClient client(daemon);
  for (const Case& c : cases) {
    arch::FabricSpec spec = small_spec();
    spec.logic_block.base_inputs = c.base_inputs;
    spec.logic_block.num_outputs = c.num_outputs;
    const ServeClient::Outcome out = client.wait(client.submit(
        ServeClient::make_request("bad", netlist, spec, {})));
    ASSERT_EQ(out.reply.status, CompileReply::Status::kFailed)
        << c.base_inputs << " " << c.num_outputs;
    EXPECT_NE(out.reply.error.find(c.error), std::string::npos)
        << out.reply.error;
  }
  EXPECT_EQ(daemon.stats().failed, std::size(cases));
  const ServeClient::Outcome ok = client.wait(client.submit(
      ServeClient::make_request("ok", netlist, small_spec(), {})));
  EXPECT_EQ(ok.reply.status, CompileReply::Status::kDone);
}

TEST(CompileDaemon, MalformedRequestRejectedAtSubmit) {
  CompileDaemon daemon;
  CompileRequest request = sample_request();
  request.base_job.clear();
  // The context count is client text: a forged one is malformed input,
  // never an allocation size.
  for (const char* count : {"2abc", "18446744073709551615", "1000000000000"}) {
    request.netlist_text =
        std::string("mcfpga-netlist v1\ncontexts ") + count + "\n";
    EXPECT_THROW(daemon.submit_frame(request_frame(request)), InvalidArgument)
        << count;
  }
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
