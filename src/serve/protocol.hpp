// Wire protocol of the compile daemon (serve/daemon.hpp).
//
// Every message is one length-prefixed binary frame:
//
//   offset 0  4 bytes   magic "MCFS"
//   offset 4  1 byte    protocol version (1)
//   offset 5  1 byte    frame type (FrameType)
//   offset 6  4 bytes   payload length, unsigned little-endian
//   offset 10 N bytes   payload
//
// The payload itself is line-oriented text in the spirit of
// config/serialize.hpp's canonical formats, and embeds them verbatim: a
// request carries the v1 netlist text as a counted byte blob, a reply
// carries the v1 bitstream text the same way.  Counted blobs rather than
// sentinel lines keep the framing robust against payload content — the
// netlist/bitstream text never needs escaping.
//
//   mcfpga-request v1              mcfpga-reply v1
//   job <name>                     job <name>
//   deadline_ms <u64>              status done|cancelled|failed
//   base <name|->                  error_bytes <n>
//   fabric <w> <h> <contexts>      <n bytes>
//          <channel> <double>      hits <u64>
//          <conventional|rcm>      misses <u64>
//   options <seed> <closure>       delta <0|1>
//           <auto_size> <ptiming>  fallback_bytes <n>
//           <rtiming>              <n bytes>
//           <binary|bucket>        critical_path <double>
//           <off|interleaved>      bitstream_bytes <n>
//           <pthreads> <rthreads>  <n bytes>
//   netlist_bytes <n>              end
//   <n bytes>
//   end                            mcfpga-progress v1
//                                  job <name>
//                                  stage <name>
//                                  seconds <double>
//                                  end
//
// All numeric fields go through common/strings' strict parsers, so
// "12abc", leading '+', and overflowed values are rejected with the
// payload line number — the same hardening the canonical text formats got.
// The options line carries the serving subset of core::CompileOptions
// (the knobs the determinism contract is tested over); fields not on the
// wire keep their defaults on the daemon side.  The fabric line's context
// count sets both FabricSpec::num_contexts and the logic block's
// num_contexts, which a valid spec keeps equal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/fabric_spec.hpp"
#include "core/flow.hpp"

namespace mcfpga::serve {

inline constexpr char kFrameMagic[4] = {'M', 'C', 'F', 'S'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 10;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
  kProgress = 3,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Prepends the 10-byte header.  Throws InvalidArgument when the payload
/// exceeds the u32 length field.
std::string encode_frame(FrameType type, const std::string& payload);

/// Reads exactly one frame; throws InvalidArgument on bad magic, version,
/// type, or a payload shorter than its declared length.
Frame decode_frame(std::istream& is);
Frame frame_from_bytes(const std::string& bytes);

/// One compile job as submitted over the wire.
struct CompileRequest {
  std::string job;                ///< Non-empty, whitespace-free.
  std::uint64_t deadline_ms = 0;  ///< Stage-boundary budget; 0 = none.
  /// Completed job to delta-recompile from (CompileService::
  /// compile_incremental); empty = full (cached) compile.
  std::string base_job;
  arch::FabricSpec fabric;
  core::CompileOptions options;
  std::string netlist_text;  ///< config/serialize.hpp canonical v1 text.
};

struct CompileReply {
  enum class Status : std::uint8_t { kDone, kCancelled, kFailed };
  std::string job;
  Status status = Status::kFailed;
  std::string error;  ///< kFailed only: what() of the terminating error.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool delta = false;           ///< Served by the delta-recompile path.
  std::string delta_fallback;   ///< Why the delta path bailed, if it did.
  double critical_path = 0.0;   ///< Worst over contexts (SE units).
  std::string bitstream_text;   ///< Canonical v1 text; kDone only.
};

/// One per-stage timing tick, streamed while a job runs.
struct ProgressEvent {
  std::string job;
  std::string stage;
  double seconds = 0.0;
};

const char* to_string(CompileReply::Status status);

/// Payload codecs.  Encoders validate names (and encode_request a fabric
/// whose logic-block context count differs from its own); decoders throw
/// InvalidArgument with a payload line number on any malformed input.
std::string encode_request(const CompileRequest& request);
CompileRequest decode_request(const std::string& payload);
std::string encode_reply(const CompileReply& reply);
CompileReply decode_reply(const std::string& payload);
std::string encode_progress(const ProgressEvent& event);
ProgressEvent decode_progress(const std::string& payload);

/// Frame-level conveniences (encode payload + wrap / unwrap + decode).
std::string request_frame(const CompileRequest& request);
std::string reply_frame(const CompileReply& reply);
std::string progress_frame(const ProgressEvent& event);

}  // namespace mcfpga::serve
