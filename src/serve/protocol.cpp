#include "serve/protocol.hpp"

#include <cctype>
#include <cstdio>
#include <istream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace mcfpga::serve {
namespace {

using mcfpga::try_parse_double;
using mcfpga::try_parse_u64;

[[noreturn]] void payload_fail(const char* what, std::size_t line,
                               const std::string& message) {
  throw InvalidArgument(std::string(what) + " payload line " +
                        std::to_string(line) + ": " + message);
}

void require_name(const char* field, const std::string& name) {
  MCFPGA_REQUIRE(!name.empty(), std::string(field) + " must be non-empty");
  for (const char c : name) {
    MCFPGA_REQUIRE(!std::isspace(static_cast<unsigned char>(c)),
                   std::string(field) + " '" + name +
                       "' must be whitespace-free");
  }
}

/// Shortest round-trippable decimal for a double (%.17g).
std::string fmt_wire_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Line-oriented payload reader: getline with a running line number, plus
/// counted-blob reads so embedded netlist/bitstream text needs no escaping.
class PayloadReader {
 public:
  PayloadReader(const char* what, const std::string& payload)
      : what_(what), is_(payload) {}

  std::size_t line_number() const { return line_; }
  [[noreturn]] void fail(const std::string& message) {
    payload_fail(what_, line_, message);
  }

  /// Next line split at the first space into (key, rest).
  std::pair<std::string, std::string> next_line() {
    std::string line;
    if (!std::getline(is_, line)) {
      fail("unexpected end of payload");
    }
    ++line_;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      return {line, std::string()};
    }
    return {line.substr(0, space), line.substr(space + 1)};
  }

  /// `<key> <u64>` line.
  std::uint64_t u64_line(const char* key) {
    const auto [k, rest] = next_line();
    if (k != key) {
      fail(std::string("expected '") + key + "', got '" + k + "'");
    }
    std::uint64_t value = 0;
    if (!try_parse_u64(rest, value)) {
      fail(std::string("invalid ") + key + " '" + rest + "'");
    }
    return value;
  }

  /// `<key> <name>` line; the name must be whitespace-free and non-empty.
  std::string name_line(const char* key) {
    const auto [k, rest] = next_line();
    if (k != key) {
      fail(std::string("expected '") + key + "', got '" + k + "'");
    }
    if (rest.empty() || rest.find(' ') != std::string::npos) {
      fail(std::string("invalid ") + key + " '" + rest + "'");
    }
    return rest;
  }

  /// `<key>_bytes <n>` line followed by exactly n raw bytes and a newline.
  std::string blob(const char* key) {
    const std::uint64_t n = u64_line(key);
    if (n > std::numeric_limits<std::size_t>::max()) {
      fail(std::string("oversized ") + key);
    }
    std::string bytes(static_cast<std::size_t>(n), '\0');
    if (n != 0 && !is_.read(bytes.data(), static_cast<std::streamsize>(n))) {
      fail(std::string("truncated ") + key + " blob");
    }
    for (const char c : bytes) {
      line_ += c == '\n' ? 1 : 0;
    }
    if (is_.get() != '\n') {
      fail(std::string(key) + " blob must end at a line boundary");
    }
    ++line_;
    return bytes;
  }

  void expect_end() {
    const auto [k, rest] = next_line();
    if (k != "end" || !rest.empty()) {
      fail("expected 'end'");
    }
  }

 private:
  const char* what_;
  std::istringstream is_;
  std::size_t line_ = 0;
};

void append_blob(std::ostream& os, const char* key, const std::string& bytes) {
  os << key << ' ' << bytes.size() << '\n' << bytes << '\n';
}

}  // namespace

std::string encode_frame(FrameType type, const std::string& payload) {
  MCFPGA_REQUIRE(payload.size() <=
                     std::numeric_limits<std::uint32_t>::max(),
                 "frame payload exceeds the u32 length field");
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((n >> shift) & 0xffu));
  }
  out.append(payload);
  return out;
}

Frame decode_frame(std::istream& is) {
  char header[kFrameHeaderBytes];
  if (!is.read(header, sizeof(header))) {
    throw InvalidArgument("frame: truncated header");
  }
  for (std::size_t i = 0; i < sizeof(kFrameMagic); ++i) {
    if (header[i] != kFrameMagic[i]) {
      throw InvalidArgument("frame: bad magic");
    }
  }
  if (static_cast<std::uint8_t>(header[4]) != kProtocolVersion) {
    throw InvalidArgument("frame: unsupported protocol version " +
                          std::to_string(static_cast<int>(
                              static_cast<std::uint8_t>(header[4]))));
  }
  const auto type = static_cast<std::uint8_t>(header[5]);
  if (type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kProgress)) {
    throw InvalidArgument("frame: unknown frame type " +
                          std::to_string(static_cast<int>(type)));
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                  header[6 + i]))
              << (8 * i);
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(length);
  if (length != 0 &&
      !is.read(frame.payload.data(), static_cast<std::streamsize>(length))) {
    throw InvalidArgument("frame: payload shorter than declared length");
  }
  return frame;
}

Frame frame_from_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return decode_frame(is);
}

const char* to_string(CompileReply::Status status) {
  switch (status) {
    case CompileReply::Status::kDone:
      return "done";
    case CompileReply::Status::kCancelled:
      return "cancelled";
    case CompileReply::Status::kFailed:
      return "failed";
  }
  return "?";
}

std::string encode_request(const CompileRequest& request) {
  require_name("job name", request.job);
  if (!request.base_job.empty()) {
    require_name("base job name", request.base_job);
  }
  std::ostringstream os;
  os << "mcfpga-request v1\n";
  os << "job " << request.job << '\n';
  os << "deadline_ms " << request.deadline_ms << '\n';
  os << "base " << (request.base_job.empty() ? "-" : request.base_job)
     << '\n';
  const arch::FabricSpec& f = request.fabric;
  // The fabric line carries one context count; the decoder copies it into
  // the logic block, so a spec whose two counts differ (which could not
  // be built anyway) would not round-trip.
  MCFPGA_REQUIRE(f.logic_block.num_contexts == f.num_contexts,
                 "logic-block context count must match fabric context "
                 "count");
  os << "fabric " << f.width << ' ' << f.height << ' ' << f.num_contexts
     << ' ' << f.channel_width << ' ' << f.double_length_tracks << ' '
     << (f.switch_impl == arch::SwitchImpl::kConventional ? "conventional"
                                                          : "rcm")
     << '\n';
  const core::CompileOptions& o = request.options;
  os << "options " << o.seed << ' ' << o.closure_iterations << ' '
     << (o.auto_size ? 1 : 0) << ' ' << (o.placer.timing_mode ? 1 : 0)
     << ' ' << (o.router.timing_mode ? 1 : 0) << ' '
     << (o.router.queue_mode == route::QueueMode::kBucket ? "bucket"
                                                          : "binary")
     << ' ';
  switch (o.router.cross_context_mode) {
    case route::CrossContextMode::kOff:
      os << "off";
      break;
    case route::CrossContextMode::kInterleaved:
      os << "interleaved";
      break;
  }
  os << ' ' << o.placer.num_threads << ' ' << o.router.num_threads << '\n';
  append_blob(os, "netlist_bytes", request.netlist_text);
  os << "end\n";
  return os.str();
}

CompileRequest decode_request(const std::string& payload) {
  PayloadReader r("request", payload);
  {
    const auto [k, rest] = r.next_line();
    if (k != "mcfpga-request" || rest != "v1") {
      r.fail("expected 'mcfpga-request v1' header");
    }
  }
  CompileRequest request;
  request.job = r.name_line("job");
  request.deadline_ms = r.u64_line("deadline_ms");
  const std::string base = r.name_line("base");
  request.base_job = base == "-" ? std::string() : base;
  {
    const auto [k, rest] = r.next_line();
    if (k != "fabric") {
      r.fail("expected 'fabric', got '" + k + "'");
    }
    std::istringstream fs(rest);
    std::string w, h, c, ch, dl, impl;
    if (!(fs >> w >> h >> c >> ch >> dl >> impl)) {
      r.fail("fabric line needs 6 fields");
    }
    std::string extra;
    if (fs >> extra) {
      r.fail("unexpected trailing token '" + extra + "'");
    }
    std::uint64_t v = 0;
    arch::FabricSpec& f = request.fabric;
    const auto field = [&](const std::string& token,
                           const char* what) -> std::size_t {
      if (!try_parse_u64(token, v) || v == 0 ||
          v > std::numeric_limits<std::size_t>::max()) {
        r.fail(std::string("invalid fabric ") + what + " '" + token + "'");
      }
      return static_cast<std::size_t>(v);
    };
    f.width = field(w, "width");
    f.height = field(h, "height");
    f.num_contexts = field(c, "contexts");
    f.logic_block.num_contexts = f.num_contexts;
    f.channel_width = field(ch, "channel width");
    if (!try_parse_u64(dl, v) ||
        v > std::numeric_limits<std::size_t>::max()) {
      r.fail("invalid fabric double-length tracks '" + dl + "'");
    }
    f.double_length_tracks = static_cast<std::size_t>(v);
    if (impl == "conventional") {
      f.switch_impl = arch::SwitchImpl::kConventional;
    } else if (impl == "rcm") {
      f.switch_impl = arch::SwitchImpl::kRcm;
    } else {
      r.fail("invalid switch implementation '" + impl + "'");
    }
  }
  {
    const auto [k, rest] = r.next_line();
    if (k != "options") {
      r.fail("expected 'options', got '" + k + "'");
    }
    std::istringstream os(rest);
    std::string seed, closure, auto_size, ptiming, rtiming, queue, ccm,
        pthreads, rthreads;
    if (!(os >> seed >> closure >> auto_size >> ptiming >> rtiming >>
          queue >> ccm >> pthreads >> rthreads)) {
      r.fail("options line needs 9 fields");
    }
    std::string extra;
    if (os >> extra) {
      r.fail("unexpected trailing token '" + extra + "'");
    }
    core::CompileOptions& o = request.options;
    std::uint64_t v = 0;
    if (!try_parse_u64(seed, v)) {
      r.fail("invalid seed '" + seed + "'");
    }
    o.seed = v;
    if (!try_parse_u64(closure, v) ||
        v > std::numeric_limits<std::size_t>::max()) {
      r.fail("invalid closure iterations '" + closure + "'");
    }
    o.closure_iterations = static_cast<std::size_t>(v);
    const auto flag = [&](const std::string& token,
                          const char* what) -> bool {
      if (token != "0" && token != "1") {
        r.fail(std::string("invalid ") + what + " flag '" + token + "'");
      }
      return token == "1";
    };
    o.auto_size = flag(auto_size, "auto-size");
    o.placer.timing_mode = flag(ptiming, "placer timing");
    o.router.timing_mode = flag(rtiming, "router timing");
    if (queue == "binary") {
      o.router.queue_mode = route::QueueMode::kBinaryHeap;
    } else if (queue == "bucket") {
      o.router.queue_mode = route::QueueMode::kBucket;
    } else {
      r.fail("invalid queue mode '" + queue + "'");
    }
    if (ccm == "off") {
      o.router.cross_context_mode = route::CrossContextMode::kOff;
    } else if (ccm == "interleaved") {
      o.router.cross_context_mode = route::CrossContextMode::kInterleaved;
    } else {
      r.fail("invalid cross-context mode '" + ccm + "'");
    }
    const auto threads = [&](const std::string& token,
                             const char* what) -> std::size_t {
      if (!try_parse_u64(token, v) ||
          v > std::numeric_limits<std::size_t>::max()) {
        r.fail(std::string("invalid ") + what + " '" + token + "'");
      }
      return static_cast<std::size_t>(v);
    };
    o.placer.num_threads = threads(pthreads, "placer threads");
    o.router.num_threads = threads(rthreads, "router threads");
  }
  request.netlist_text = r.blob("netlist_bytes");
  r.expect_end();
  return request;
}

std::string encode_reply(const CompileReply& reply) {
  require_name("job name", reply.job);
  std::ostringstream os;
  os << "mcfpga-reply v1\n";
  os << "job " << reply.job << '\n';
  os << "status " << to_string(reply.status) << '\n';
  append_blob(os, "error_bytes", reply.error);
  os << "hits " << reply.cache_hits << '\n';
  os << "misses " << reply.cache_misses << '\n';
  os << "delta " << (reply.delta ? 1 : 0) << '\n';
  append_blob(os, "fallback_bytes", reply.delta_fallback);
  os << "critical_path " << fmt_wire_double(reply.critical_path) << '\n';
  append_blob(os, "bitstream_bytes", reply.bitstream_text);
  os << "end\n";
  return os.str();
}

CompileReply decode_reply(const std::string& payload) {
  PayloadReader r("reply", payload);
  {
    const auto [k, rest] = r.next_line();
    if (k != "mcfpga-reply" || rest != "v1") {
      r.fail("expected 'mcfpga-reply v1' header");
    }
  }
  CompileReply reply;
  reply.job = r.name_line("job");
  const std::string status = r.name_line("status");
  if (status == "done") {
    reply.status = CompileReply::Status::kDone;
  } else if (status == "cancelled") {
    reply.status = CompileReply::Status::kCancelled;
  } else if (status == "failed") {
    reply.status = CompileReply::Status::kFailed;
  } else {
    r.fail("invalid status '" + status + "'");
  }
  reply.error = r.blob("error_bytes");
  reply.cache_hits = r.u64_line("hits");
  reply.cache_misses = r.u64_line("misses");
  const std::uint64_t delta = r.u64_line("delta");
  if (delta > 1) {
    r.fail("invalid delta flag '" + std::to_string(delta) + "'");
  }
  reply.delta = delta == 1;
  reply.delta_fallback = r.blob("fallback_bytes");
  {
    const auto [k, rest] = r.next_line();
    if (k != "critical_path") {
      r.fail("expected 'critical_path', got '" + k + "'");
    }
    if (!try_parse_double(rest, reply.critical_path)) {
      r.fail("invalid critical path '" + rest + "'");
    }
  }
  reply.bitstream_text = r.blob("bitstream_bytes");
  r.expect_end();
  return reply;
}

std::string encode_progress(const ProgressEvent& event) {
  require_name("job name", event.job);
  require_name("stage name", event.stage);
  std::ostringstream os;
  os << "mcfpga-progress v1\n";
  os << "job " << event.job << '\n';
  os << "stage " << event.stage << '\n';
  os << "seconds " << fmt_wire_double(event.seconds) << '\n';
  os << "end\n";
  return os.str();
}

ProgressEvent decode_progress(const std::string& payload) {
  PayloadReader r("progress", payload);
  {
    const auto [k, rest] = r.next_line();
    if (k != "mcfpga-progress" || rest != "v1") {
      r.fail("expected 'mcfpga-progress v1' header");
    }
  }
  ProgressEvent event;
  event.job = r.name_line("job");
  event.stage = r.name_line("stage");
  {
    const auto [k, rest] = r.next_line();
    if (k != "seconds") {
      r.fail("expected 'seconds', got '" + k + "'");
    }
    if (!try_parse_double(rest, event.seconds) || event.seconds < 0.0) {
      r.fail("invalid seconds '" + rest + "'");
    }
  }
  r.expect_end();
  return event;
}

std::string request_frame(const CompileRequest& request) {
  return encode_frame(FrameType::kRequest, encode_request(request));
}

std::string reply_frame(const CompileReply& reply) {
  return encode_frame(FrameType::kReply, encode_reply(reply));
}

std::string progress_frame(const ProgressEvent& event) {
  return encode_frame(FrameType::kProgress, encode_progress(event));
}

}  // namespace mcfpga::serve
