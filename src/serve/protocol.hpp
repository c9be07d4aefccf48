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
//   mcfpga-request v2              mcfpga-reply v1
//   job <name>                     job <name>
//   deadline_ms <u64>              status done|cancelled|failed
//   base <name|->                  error_bytes <n>
//   <field> <value>                <n bytes>
//   ... one line per field         hits <u64>
//   netlist_bytes <n>              misses <u64>
//   <n bytes>                      delta <0|1>
//   end                            fallback_bytes <n>
//                                  <n bytes>
//   mcfpga-progress v1             critical_path <double>
//   job <name>                     bitstream_bytes <n>
//   stage <name>                   <n bytes>
//   seconds <double>               end
//   end
//
// The request's field lines are core/fields.hpp's list, every FabricSpec
// and CompileOptions field as `<dotted.name> <value>` ("fabric.width 8",
// "placer.sweeps 64"), in list order, so the daemon compiles what the
// request says.  Values are unsigned integers, 0/1 flags, finite doubles
// or enum words (rcm|conventional, local|global, binary|bucket,
// off|interleaved); the compile validates them, as a direct compile does.
// A request naming a base job must repeat the base's fabric lines: a
// delta recompile keeps its base's fabric, so other ones fail the job.
// Effort fields (sweeps, restarts, closure iterations, fabric size) are
// not capped: the daemon is in-process, and caps belong with a socket
// transport's admission control.
//
// All numeric fields go through common/strings' strict parsers, so
// "12abc", leading '+', overflowed values, "nan" and "inf" are rejected
// with the payload line number — the same hardening the canonical text
// formats got.  Decoders accept exactly what the encoders write: one
// space between fields, integers without leading zeros, doubles as
// %.17g renders them, a newline after every line and nothing after `end`
// (or after a frame's declared payload).  So a payload or frame that
// decodes re-encodes to the same bytes.
//
// Each message is rendered and copied once.  One std::string writer
// builds every payload, and the *_frame functions write header and
// payload into one reserved buffer, then patch the length field.
// Decoders read the bytes in place (std::string_view): each blob is
// copied out once, and every declared length — a frame's, a blob's — is
// checked against the bytes left before anything is allocated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
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
std::string encode_frame(FrameType type, std::string_view payload);

/// `bytes` must be exactly one frame; throws InvalidArgument on bad magic,
/// version or type, a payload shorter than its declared length, or
/// trailing bytes past it.
Frame frame_from_bytes(std::string_view bytes);

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
  /// The job's own design-cache lookup: 1/0 for a repeat, 0/1 for a
  /// cold compile, 0/0 for a delta-path recompile (which stores nothing).
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

/// Payload codecs.  Encoders validate names (and encode_request that
/// every double is finite); decoders throw InvalidArgument with a payload
/// line number on any malformed input.
std::string encode_request(const CompileRequest& request);
CompileRequest decode_request(std::string_view payload);
std::string encode_reply(const CompileReply& reply);
CompileReply decode_reply(std::string_view payload);
std::string encode_progress(const ProgressEvent& event);
ProgressEvent decode_progress(std::string_view payload);

/// Whole frames, header and payload built in one buffer; the bytes equal
/// encode_frame(type, encode_*(x)).
std::string request_frame(const CompileRequest& request);
std::string reply_frame(const CompileReply& reply);
std::string progress_frame(const ProgressEvent& event);

}  // namespace mcfpga::serve
