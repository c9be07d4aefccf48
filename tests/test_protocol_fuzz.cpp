// Deterministic mutation fuzzer for the compile daemon's untrusted-input
// decoders: the wire decoders (src/serve/protocol.hpp: frame_from_bytes,
// decode_request, decode_reply, decode_progress) and the netlist text a
// request carries (config::netlist_from_text, which submit_frame runs).
//
// Seed frames and payloads are mutated with byte flips, overwrites with
// characters the formats care about, inserts, deletes, truncations and
// rewritten counts (a blob's `*_bytes` count, the frame header's u32, or
// a netlist's `contexts` / `nodes` / `outputs` count, set to off-by-one,
// bytes-left and huge values).  Each mutant must either decode or throw
// InvalidArgument: any other exception fails the test, as does a crash
// or, in the ASan+UBSan lane, undefined behaviour.  Each wire mutant that
// decodes must re-encode to exactly its own bytes.
//
// The seed is fixed, so every run checks the same inputs; the iteration
// count keeps the whole test well under 2 s, sanitized builds included.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "netlist/dfg.hpp"
#include "serve/protocol.hpp"

#include "field_flips.hpp"

namespace mcfpga::serve {
namespace {

constexpr std::uint64_t kSeed = 20261017;
constexpr std::size_t kMutantsPerSeed = 1500;

CompileRequest seed_request() {
  CompileRequest request;
  request.job = "job-a";
  request.deadline_ms = 1500;
  request.base_job = "base-job";
  // Every listed field off its default, so mutants reach every field
  // line in a form the encoder writes (doubles with %.17g digits).
  core::visit_compile_fields(
      request.fabric, request.options,
      [](std::string_view, auto& value,
         core::Effect = core::Effect::kResult) {
        fieldtest::flip_value(value);
      });
  // The request codec never parses the netlist blob; a short multi-line
  // one keeps the mutations on the structure around it.
  request.netlist_text = "mcfpga-netlist v1\ncontexts 2\ncontext 0\n";
  return request;
}

CompileReply seed_reply(CompileReply::Status status) {
  CompileReply reply;
  reply.job = "job-a";
  reply.status = status;
  reply.cache_hits = 8;
  reply.cache_misses = 3;
  reply.delta = true;
  reply.delta_fallback = "diff exceeds threshold";
  reply.critical_path = 12.625;
  if (status == CompileReply::Status::kDone) {
    reply.bitstream_text =
        "mcfpga-bitstream v1\ncontexts 4\nrows 2\n"
        "sb(0,0).p0 routing-switch 0101\nlb(1,2).out0[7] lut-bit 1111\n";
  } else {
    reply.error = "route: unroutable\nnet n3";
  }
  return reply;
}

/// Two contexts sharing input names, so the seed exercises every line
/// kind of the netlist text.
std::string seed_netlist_text() {
  netlist::MultiContextNetlist nl(2);
  const auto a = nl.context(0).add_input("a");
  const auto b = nl.context(0).add_input("b");
  const auto x =
      nl.context(0).add_lut("xor", {a, b}, BitVector::from_string("0110"));
  nl.context(0).mark_output(x, "y");
  nl.context(0).mark_output(a, "z");
  const auto p = nl.context(1).add_input("a");
  const auto q = nl.context(1).add_lut("inv", {p}, BitVector::from_string("01"));
  nl.context(1).mark_output(q, "y");
  return config::netlist_to_text(nl);
}

class Mutator {
 public:
  /// `count_keys` name the counts the count rewrite targets: the text
  /// right after each key is a decimal count.
  explicit Mutator(std::uint64_t seed,
                   std::vector<std::string> count_keys = {"_bytes "})
      : rng_(seed), count_keys_(std::move(count_keys)) {}

  /// One to three mutations of `in`.
  std::string mutate(std::string s) {
    const std::uint64_t n = 1 + rng_.next_below(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      mutate_once(s);
    }
    return s;
  }

 private:
  std::size_t pos(std::size_t size) {
    return size == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(size));
  }

  char interesting_char() {
    static constexpr std::array<char, 14> kChars = {
        ' ', '\n', '\t', '\r', '\0', '0', '1', '9',
        '-', '+', '.', 'e', 'x', static_cast<char>(0xff)};
    return kChars[rng_.next_below(kChars.size())];
  }

  /// A length near `n` or `left`, or far beyond anything in memory.
  std::uint64_t interesting_length(std::uint64_t n, std::uint64_t left) {
    const std::array<std::uint64_t, 14> values = {
        0,
        1,
        n - 1,
        n + 1,
        2 * n,
        left - 1,
        left,
        left + 1,
        std::uint64_t{1} << 31,
        0xffffffffull,
        std::uint64_t{1} << 32,
        1000000000000ull,
        std::uint64_t{1} << 63,
        0xffffffffffffffffull};
    if (rng_.next_below(values.size() + 1) == values.size()) {
      return rng_.next_u64();
    }
    return values[rng_.next_below(values.size())];
  }

  void mutate_once(std::string& s) {
    switch (rng_.next_below(7)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[pos(s.size())] ^= static_cast<char>(1u << rng_.next_below(8));
        }
        break;
      case 1:  // overwrite one byte
        if (!s.empty()) {
          s[pos(s.size())] = interesting_char();
        }
        break;
      case 2: {  // insert 1..4 bytes
        const std::size_t at = pos(s.size() + 1);
        const std::size_t count = 1 + rng_.next_below(4);
        for (std::size_t i = 0; i < count; ++i) {
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                   interesting_char());
        }
        break;
      }
      case 3:  // delete 1..8 bytes
        if (!s.empty()) {
          const std::size_t at = pos(s.size());
          s.erase(at, 1 + rng_.next_below(8));
        }
        break;
      case 4:  // truncate
        s.resize(pos(s.size() + 1));
        break;
      case 5:
        rewrite_count(s);
        break;
      default:
        rewrite_frame_length(s);
        break;
    }
  }

  /// Sets one count after a `count_keys_` key to an interesting value.
  void rewrite_count(std::string& s) {
    std::vector<std::size_t> counts;
    for (const std::string& key : count_keys_) {
      for (std::size_t at = s.find(key); at != std::string::npos;
           at = s.find(key, at + 1)) {
        counts.push_back(at + key.size());
      }
    }
    if (counts.empty()) {
      return;
    }
    const std::size_t start = counts[rng_.next_below(counts.size())];
    std::size_t end = s.find('\n', start);
    if (end == std::string::npos) {
      end = s.size();
    }
    std::uint64_t n = 0;
    for (std::size_t i = start; i < end && i < start + 19; ++i) {
      n = n * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    const std::uint64_t left = s.size() - end;
    s.replace(start, end - start,
              std::to_string(interesting_length(n, left)));
  }

  /// Sets the frame header's u32 payload length to an interesting value.
  void rewrite_frame_length(std::string& s) {
    if (s.size() < kFrameHeaderBytes) {
      return;
    }
    const std::uint64_t left = s.size() - kFrameHeaderBytes;
    const auto n =
        static_cast<std::uint32_t>(interesting_length(left, left));
    for (std::size_t i = 0; i < 4; ++i) {
      s[6 + i] = static_cast<char>((n >> (8 * i)) & 0xffu);
    }
  }

  Rng rng_;
  std::vector<std::string> count_keys_;
};

/// Runs every decoder on its inputs and keeps the verdicts.
class Checker {
 public:
  std::size_t decoded = 0;
  std::size_t rejected = 0;

  /// `decode` must return normally or throw InvalidArgument; when it
  /// returns, `reencode` of its result must equal `bytes`.
  template <typename Decode, typename Reencode>
  void check(const char* what, const std::string& bytes, Decode&& decode,
             Reencode&& reencode) {
    try {
      const auto value = decode(bytes);
      ++decoded;
      const std::string again = reencode(value);
      if (again != bytes) {
        report(what, bytes, "decoded, but re-encodes to different bytes");
      }
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      report(what, bytes,
             std::string("threw ") + typeid(e).name() + ": " + e.what());
    }
  }

  /// `parse` must return normally or throw InvalidArgument (for formats
  /// whose reader is lenient, so no re-encoding is compared).
  template <typename Parse>
  void check_parses(const char* what, const std::string& bytes,
                    Parse&& parse) {
    try {
      parse(bytes);
      ++decoded;
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      report(what, bytes,
             std::string("threw ") + typeid(e).name() + ": " + e.what());
    }
  }

 private:
  void report(const char* what, const std::string& bytes,
              const std::string& verdict) {
    if (++failures_ > 8) {
      return;  // enough to diagnose; the test has failed already
    }
    std::string shown;
    for (const char c : bytes.substr(0, 240)) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '\n') {
        shown += "\\n";
      } else if (u < 0x20 || u >= 0x7f) {
        static constexpr char kHex[] = "0123456789abcdef";
        shown += "\\x";
        shown += kHex[u >> 4];
        shown += kHex[u & 0xf];
      } else {
        shown += c;
      }
    }
    ADD_FAILURE() << what << " " << verdict << "\n  input (" << bytes.size()
                  << " bytes): \"" << shown << "\"";
  }

  std::size_t failures_ = 0;
};

/// The payload decoders, each with its re-encoder.
void check_payload(Checker& c, const std::string& payload) {
  c.check(
      "decode_request", payload,
      [](const std::string& p) { return decode_request(p); },
      [](const CompileRequest& r) { return encode_request(r); });
  c.check(
      "decode_reply", payload,
      [](const std::string& p) { return decode_reply(p); },
      [](const CompileReply& r) { return encode_reply(r); });
  c.check(
      "decode_progress", payload,
      [](const std::string& p) { return decode_progress(p); },
      [](const ProgressEvent& e) { return encode_progress(e); });
}

/// A whole frame, through the frame decoder and then its payload's.
void check_frame(Checker& c, const std::string& bytes) {
  c.check(
      "frame_from_bytes", bytes,
      [](const std::string& b) { return frame_from_bytes(b); },
      [](const Frame& f) { return encode_frame(f.type, f.payload); });
  // A frame that parses goes on to its payload decoder, like a client's.
  Frame frame;
  try {
    frame = frame_from_bytes(bytes);
  } catch (const InvalidArgument&) {
    return;
  }
  switch (frame.type) {
    case FrameType::kRequest:
      c.check(
          "request frame", bytes,
          [](const std::string& b) {
            return decode_request(frame_from_bytes(b).payload);
          },
          [](const CompileRequest& r) { return request_frame(r); });
      break;
    case FrameType::kReply:
      c.check(
          "reply frame", bytes,
          [](const std::string& b) {
            return decode_reply(frame_from_bytes(b).payload);
          },
          [](const CompileReply& r) { return reply_frame(r); });
      break;
    case FrameType::kProgress:
      c.check(
          "progress frame", bytes,
          [](const std::string& b) {
            return decode_progress(frame_from_bytes(b).payload);
          },
          [](const ProgressEvent& e) { return progress_frame(e); });
      break;
  }
}

TEST(ProtocolFuzz, MutantsDecodeCanonicallyOrThrowInvalidArgument) {
  const std::vector<std::string> payloads = {
      encode_request(seed_request()),
      encode_reply(seed_reply(CompileReply::Status::kDone)),
      encode_reply(seed_reply(CompileReply::Status::kFailed)),
      encode_progress(ProgressEvent{"job-a", "route", 0.03125}),
  };
  const std::vector<std::string> frames = {
      request_frame(seed_request()),
      reply_frame(seed_reply(CompileReply::Status::kDone)),
      reply_frame(seed_reply(CompileReply::Status::kFailed)),
      progress_frame(ProgressEvent{"job-a", "route", 0.03125}),
  };

  Checker c;
  // The unmutated seeds decode and re-encode exactly.
  for (const std::string& p : payloads) {
    check_payload(c, p);
  }
  for (const std::string& f : frames) {
    check_frame(c, f);
  }
  ASSERT_EQ(c.decoded, 4u + 4u * 2u);

  Mutator m(kSeed);
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    for (const std::string& p : payloads) {
      check_payload(c, m.mutate(p));
    }
    for (const std::string& f : frames) {
      check_frame(c, m.mutate(f));
    }
  }
  // Both outcomes are exercised, so the property is not vacuous.
  EXPECT_GT(c.rejected, kMutantsPerSeed);
  EXPECT_GT(c.decoded, 4u + 4u * 2u + kMutantsPerSeed / 10);
}

TEST(ProtocolFuzz, NetlistMutantsParseOrThrowInvalidArgument) {
  const std::string seed = seed_netlist_text();
  const auto parse = [](const std::string& text) {
    return config::netlist_from_text(text);
  };
  Checker c;
  c.check_parses("netlist_from_text", seed, parse);
  ASSERT_EQ(c.decoded, 1u);

  Mutator m(kSeed, {"contexts ", "nodes ", "outputs "});
  for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
    c.check_parses("netlist_from_text", m.mutate(seed), parse);
  }
  EXPECT_GT(c.rejected, kMutantsPerSeed / 2);
  EXPECT_GT(c.decoded, kMutantsPerSeed / 100);
}

}  // namespace
}  // namespace mcfpga::serve
