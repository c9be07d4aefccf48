#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/fields.hpp"

namespace mcfpga::serve {
namespace {

using mcfpga::try_parse_double;
using mcfpga::try_parse_u64;

[[noreturn]] void payload_fail(const char* what, std::size_t line,
                               const std::string& message) {
  throw InvalidArgument(std::string(what) + " payload line " +
                        std::to_string(line) + ": " + message);
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

void require_name(const char* field, const std::string& name) {
  MCFPGA_REQUIRE(!name.empty(), std::string(field) + " must be non-empty");
  MCFPGA_REQUIRE(std::none_of(name.begin(), name.end(), is_space),
                 std::string(field) + " '" + name +
                     "' must be whitespace-free");
}

/// Shortest round-trippable decimal for a double (%.17g).
std::string fmt_wire_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// --- frame header ------------------------------------------------------------

/// Appends a header whose length field patch_length() fills in.
void append_header(std::string& out, FrameType type) {
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out.append(4, '\0');
}

/// Writes the length of everything after the header at `frame`'s front.
void patch_length(std::string& frame) {
  const std::size_t size = frame.size() - kFrameHeaderBytes;
  MCFPGA_REQUIRE(size <= std::numeric_limits<std::uint32_t>::max(),
                 "frame payload exceeds the u32 length field");
  const auto n = static_cast<std::uint32_t>(size);
  for (std::size_t i = 0; i < 4; ++i) {
    frame[6 + i] = static_cast<char>((n >> (8 * i)) & 0xffu);
  }
}

/// Builds a frame in one buffer: the header, the payload `write` appends
/// after it, then the patched length field.  `payload_bytes` is the
/// reservation, so a payload no longer than it is never copied.
template <typename Write>
std::string make_frame(FrameType type, std::size_t payload_bytes,
                       Write&& write) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload_bytes);
  append_header(frame, type);
  write(frame);
  patch_length(frame);
  return frame;
}

// --- payloads ----------------------------------------------------------------

/// Appends payload lines to one std::string: the frame's own buffer when
/// a frame is built, so the payload is never copied into it afterwards.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::string& out) : out_(out) {}

  /// Starts a line; its fields follow, each after one space.
  PayloadWriter& key(std::string_view name) {
    out_ += name;
    return *this;
  }
  PayloadWriter& field(std::string_view text) {
    out_ += ' ';
    out_ += text;
    return *this;
  }
  PayloadWriter& field(std::uint64_t value) {
    char buf[20];
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_ += ' ';
    out_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }
  PayloadWriter& real_field(double value) {
    return field(fmt_wire_double(value));
  }
  void end_line() { out_ += '\n'; }

  /// `<key> <n>` line, then exactly n raw bytes and a newline.
  void blob(std::string_view name, std::string_view bytes) {
    key(name).field(bytes.size()).end_line();
    out_ += bytes;
    out_ += '\n';
  }

 private:
  std::string& out_;
};

std::string_view flag(bool value) { return value ? "1" : "0"; }

/// Reads a payload in place: lines and fields are views into it, and each
/// blob is copied out once.  It accepts only what PayloadWriter writes —
/// one space between fields, integers without leading zeros, doubles in
/// their %.17g form, every line newline-terminated, nothing after `end` —
/// so a payload that decodes re-encodes to the same bytes.
class PayloadReader {
 public:
  PayloadReader(const char* what, std::string_view payload)
      : what_(what), rest_(payload) {}

  [[noreturn]] void fail(const std::string& message) const {
    payload_fail(what_, line_, message);
  }

  /// The next line, without its newline.
  std::string_view line() {
    const std::size_t eol = rest_.find('\n');
    if (eol == std::string_view::npos) {
      if (rest_.empty()) {
        fail("unexpected end of payload");
      }
      ++line_;
      fail("line does not end with a newline");
    }
    ++line_;
    const std::string_view text = rest_.substr(0, eol);
    rest_.remove_prefix(eol + 1);
    return text;
  }

  /// `<key> <rest>` line; returns rest.
  std::string_view keyed_line(std::string_view key) {
    const std::string_view l = line();
    const std::size_t space = l.find(' ');
    const std::string_view k = l.substr(0, space);
    if (k != key) {
      fail("expected '" + std::string(key) + "', got '" + std::string(k) +
           "'");
    }
    return space == std::string_view::npos ? std::string_view()
                                           : l.substr(space + 1);
  }

  /// `<key> <u64>` line.
  std::uint64_t u64_line(const char* key) {
    const std::string_view rest = keyed_line(key);
    std::uint64_t value = 0;
    if (!parse_u64(rest, value)) {
      fail(std::string("invalid ") + key + " '" + std::string(rest) + "'");
    }
    return value;
  }

  /// `<key> <name>` line; the name must be whitespace-free and non-empty.
  std::string name_line(const char* key) {
    const std::string_view rest = keyed_line(key);
    if (rest.empty() || std::any_of(rest.begin(), rest.end(), is_space)) {
      fail(std::string("invalid ") + key + " '" + std::string(rest) + "'");
    }
    return std::string(rest);
  }

  /// `<key>_bytes <n>` line followed by exactly n raw bytes and a newline.
  std::string blob(const char* key) {
    const std::uint64_t n = u64_line(key);
    // Checked against the bytes left before anything is allocated, so a
    // forged length fails here rather than reserving what it claims.
    if (n >= rest_.size()) {
      fail(std::string(key) + " " + std::to_string(n) + " exceeds the " +
           std::to_string(rest_.size()) + " payload bytes left");
    }
    const std::string_view bytes = rest_.substr(0, n);
    line_ += static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.end(), '\n'));
    if (rest_[n] != '\n') {
      fail(std::string(key) + " blob must end at a line boundary");
    }
    ++line_;
    rest_.remove_prefix(n + 1);
    return std::string(bytes);
  }

  /// The `end` line, which must be the payload's last.
  void expect_end() {
    if (line() != "end") {
      fail("expected 'end'");
    }
    if (!rest_.empty()) {
      ++line_;
      fail(std::to_string(rest_.size()) + " trailing bytes after 'end'");
    }
  }

  /// Canonical u64: digits only, no leading zero (except "0" itself).
  static bool parse_u64(std::string_view token, std::uint64_t& out) {
    return !(token.size() > 1 && token.front() == '0') &&
           try_parse_u64(token, out);
  }

  /// Canonical double: a finite value written exactly as %.17g writes it.
  static bool parse_double(std::string_view token, double& out) {
    return try_parse_double(token, out) && fmt_wire_double(out) == token;
  }

 private:
  const char* what_;
  std::string_view rest_;  ///< Not yet read.
  std::size_t line_ = 0;   ///< Lines read so far.
};

/// Writes each listed field as a `<dotted.name> <value>` line: integers
/// in decimal, doubles as %.17g (finite only, so the decoder reads back
/// every line the encoder writes), flags and enums as words.
struct FieldWriter {
  PayloadWriter& w;

  template <typename T>
  void operator()(std::string_view name, const T& value,
                  core::Effect = core::Effect::kResult) const {
    w.key(name);
    if constexpr (std::is_same_v<T, bool>) {
      w.field(flag(value));
    } else if constexpr (std::is_enum_v<T>) {
      const auto words = core::field_words(value);
      const auto index = static_cast<std::size_t>(value);
      MCFPGA_REQUIRE(index < words.size(),
                     std::string(name) + " holds no named value");
      w.field(words[index]);
    } else if constexpr (std::is_floating_point_v<T>) {
      MCFPGA_REQUIRE(std::isfinite(value),
                     std::string(name) + " must be finite");
      w.real_field(value);
    } else {
      static_assert(std::is_unsigned_v<T>, "a listed field of a new type");
      w.field(std::uint64_t{value});
    }
    w.end_line();
  }
};

void write_request(std::string& out, const CompileRequest& request) {
  require_name("job name", request.job);
  if (!request.base_job.empty()) {
    require_name("base job name", request.base_job);
  }
  PayloadWriter w(out);
  w.key("mcfpga-request v2").end_line();
  w.key("job").field(request.job).end_line();
  w.key("deadline_ms").field(request.deadline_ms).end_line();
  w.key("base")
      .field(request.base_job.empty() ? std::string_view("-")
                                      : std::string_view(request.base_job))
      .end_line();
  core::visit_compile_fields(request.fabric, request.options,
                             FieldWriter{w});
  w.blob("netlist_bytes", request.netlist_text);
  w.key("end").end_line();
}

/// Parses one listed field's value; false unless `text` is exactly what
/// FieldWriter writes for some value.
bool parse_field(std::string_view text, double& out) {
  return PayloadReader::parse_double(text, out);
}
bool parse_field(std::string_view text, bool& out) {
  out = text == flag(true);
  return out || text == flag(false);
}
template <typename T>
  requires std::is_enum_v<T>
bool parse_field(std::string_view text, T& out) {
  const auto words = core::field_words(out);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i] == text) {
      out = static_cast<T>(i);
      return true;
    }
  }
  return false;
}
template <typename T>
  requires std::is_unsigned_v<T> && (!std::is_same_v<T, bool>)
bool parse_field(std::string_view text, T& out) {
  std::uint64_t value = 0;
  if (!PayloadReader::parse_u64(text, value) ||
      value > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Reads each listed field from its `<dotted.name> <value>` line: the
/// names of the list, in its order, each value in canonical form.
struct FieldReader {
  PayloadReader& r;

  template <typename T>
  void operator()(std::string_view name, T& value,
                  core::Effect = core::Effect::kResult) const {
    const std::string_view text = r.keyed_line(name);
    if (!parse_field(text, value)) {
      r.fail("invalid " + std::string(name) + " '" + std::string(text) +
             "'");
    }
  }
};

void write_reply(std::string& out, const CompileReply& reply) {
  require_name("job name", reply.job);
  PayloadWriter w(out);
  w.key("mcfpga-reply v1").end_line();
  w.key("job").field(reply.job).end_line();
  w.key("status").field(to_string(reply.status)).end_line();
  w.blob("error_bytes", reply.error);
  w.key("hits").field(reply.cache_hits).end_line();
  w.key("misses").field(reply.cache_misses).end_line();
  w.key("delta").field(flag(reply.delta)).end_line();
  w.blob("fallback_bytes", reply.delta_fallback);
  w.key("critical_path").real_field(reply.critical_path).end_line();
  w.blob("bitstream_bytes", reply.bitstream_text);
  w.key("end").end_line();
}

void write_progress(std::string& out, const ProgressEvent& event) {
  require_name("job name", event.job);
  require_name("stage name", event.stage);
  PayloadWriter w(out);
  w.key("mcfpga-progress v1").end_line();
  w.key("job").field(event.job).end_line();
  w.key("stage").field(event.stage).end_line();
  w.key("seconds").real_field(event.seconds).end_line();
  w.key("end").end_line();
}

// Payload reservations: the blobs plus room for every fixed line.
std::size_t request_bytes(const CompileRequest& request) {
  return 1536 + request.job.size() + request.base_job.size() +
         request.netlist_text.size();
}
std::size_t reply_bytes(const CompileReply& reply) {
  return 320 + reply.job.size() + reply.error.size() +
         reply.delta_fallback.size() + reply.bitstream_text.size();
}
std::size_t progress_bytes(const ProgressEvent& event) {
  return 96 + event.job.size() + event.stage.size();
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  return make_frame(type, payload.size(),
                    [&](std::string& out) { out += payload; });
}

Frame frame_from_bytes(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw InvalidArgument("frame: truncated header");
  }
  if (!std::equal(kFrameMagic, kFrameMagic + sizeof(kFrameMagic),
                  bytes.data())) {
    throw InvalidArgument("frame: bad magic");
  }
  const auto version = static_cast<std::uint8_t>(bytes[4]);
  if (version != kProtocolVersion) {
    throw InvalidArgument("frame: unsupported protocol version " +
                          std::to_string(static_cast<int>(version)));
  }
  const auto type = static_cast<std::uint8_t>(bytes[5]);
  if (type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kProgress)) {
    throw InvalidArgument("frame: unknown frame type " +
                          std::to_string(static_cast<int>(type)));
  }
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                  bytes[6 + i]))
              << (8 * i);
  }
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (payload.size() < length) {
    throw InvalidArgument("frame: payload shorter than declared length");
  }
  if (payload.size() > length) {
    throw InvalidArgument("frame: " +
                          std::to_string(payload.size() - length) +
                          " trailing bytes after the payload");
  }
  return Frame{static_cast<FrameType>(type), std::string(payload)};
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
  std::string out;
  out.reserve(request_bytes(request));
  write_request(out, request);
  return out;
}

CompileRequest decode_request(std::string_view payload) {
  PayloadReader r("request", payload);
  if (r.line() != "mcfpga-request v2") {
    r.fail("expected 'mcfpga-request v2' header");
  }
  CompileRequest request;
  request.job = r.name_line("job");
  request.deadline_ms = r.u64_line("deadline_ms");
  const std::string base = r.name_line("base");
  request.base_job = base == "-" ? std::string() : base;
  core::visit_compile_fields(request.fabric, request.options,
                             FieldReader{r});
  request.netlist_text = r.blob("netlist_bytes");
  r.expect_end();
  return request;
}

std::string encode_reply(const CompileReply& reply) {
  std::string out;
  out.reserve(reply_bytes(reply));
  write_reply(out, reply);
  return out;
}

CompileReply decode_reply(std::string_view payload) {
  PayloadReader r("reply", payload);
  if (r.line() != "mcfpga-reply v1") {
    r.fail("expected 'mcfpga-reply v1' header");
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
    const std::string_view rest = r.keyed_line("critical_path");
    if (!PayloadReader::parse_double(rest, reply.critical_path)) {
      r.fail("invalid critical path '" + std::string(rest) + "'");
    }
  }
  reply.bitstream_text = r.blob("bitstream_bytes");
  r.expect_end();
  return reply;
}

std::string encode_progress(const ProgressEvent& event) {
  std::string out;
  out.reserve(progress_bytes(event));
  write_progress(out, event);
  return out;
}

ProgressEvent decode_progress(std::string_view payload) {
  PayloadReader r("progress", payload);
  if (r.line() != "mcfpga-progress v1") {
    r.fail("expected 'mcfpga-progress v1' header");
  }
  ProgressEvent event;
  event.job = r.name_line("job");
  event.stage = r.name_line("stage");
  {
    const std::string_view rest = r.keyed_line("seconds");
    if (!PayloadReader::parse_double(rest, event.seconds) ||
        event.seconds < 0.0) {
      r.fail("invalid seconds '" + std::string(rest) + "'");
    }
  }
  r.expect_end();
  return event;
}

std::string request_frame(const CompileRequest& request) {
  return make_frame(FrameType::kRequest, request_bytes(request),
                    [&](std::string& out) { write_request(out, request); });
}

std::string reply_frame(const CompileReply& reply) {
  return make_frame(FrameType::kReply, reply_bytes(reply),
                    [&](std::string& out) { write_reply(out, reply); });
}

std::string progress_frame(const ProgressEvent& event) {
  return make_frame(FrameType::kProgress, progress_bytes(event),
                    [&](std::string& out) { write_progress(out, event); });
}

}  // namespace mcfpga::serve
