// Shared pieces of the repo benchmark: pass results, the stage-span
// recorder, and the per-op correctness oracle.
//
// Everything here goes through the library's public API only.  Layers are
// measured from outside: a core::StageObserver timed with the benchmark's
// own clock, and the counters a CompiledDesign (or a daemon reply)
// carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/incremental.hpp"
#include "core/stages.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Deterministic values of one pass (QoR sums, work counters, an output
/// digest).  Every pass of one seed must reproduce them exactly.
using Counts = std::map<std::string, double>;

/// Span name -> milliseconds, summed over a pass's ops.
using Spans = std::map<std::string, double>;

struct PassResult {
  double setup_s = 0.0;
  double timed_s = 0.0;        ///< Wall clock of the timed region.
  bool traced = false;
  std::vector<double> op_ms;   ///< Latency of each op that returned.
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< Ops that threw or produced wrong output.
  std::vector<std::string> errors;
  Counts counts;
  /// Sums over ops of sizes that may differ between passes.
  Counts gauges;
  Spans spans;                 ///< Traced passes only.
};

/// One workload: setup() builds inputs and warms caches (timed as
/// setup_s); run() executes the seeded op sequence once.  Each pass calls
/// setup() again, so every pass starts from the same state.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual PassResult run(bool traced) = 0;
};

std::unique_ptr<Workload> make_cold_flow(std::uint64_t seed);
std::unique_ptr<Workload> make_edit_loop(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);

/// Span name of a pipeline stage: its layer metric, or the cache-restore
/// span when the stage was satisfied from the stage cache.
std::string stage_span(const std::string& stage, bool restored);

/// Records one compile's stage spans.  A stage during which the
/// FlowCache's hit counter rose was restored, not computed.  A stage the
/// library abandons without a done call (a delta recompile that falls
/// back mid-block) is closed at the next stage start.
class StageSpans final : public mcfpga::core::StageObserver {
 public:
  explicit StageSpans(const mcfpga::cache::FlowCache& cache) : cache_(cache) {}

  bool on_stage_start(const char* stage) override;
  void on_stage_done(const char* stage, double seconds) override;

  /// Adds the op's spans to `into` and resets for the next op.
  void flush(Spans& into);

 private:
  std::size_t hits() const;
  void close(Clock::time_point end);

  const mcfpga::cache::FlowCache& cache_;
  bool open_ = false;
  std::string stage_;
  Clock::time_point start_{};
  std::size_t hits_at_start_ = 0;
  Spans spans_;
};

/// Correctness and paper-currency figures of one compiled design,
/// computed once per distinct output outside the timed region.
struct Verdict {
  std::uint64_t digest = 0;      ///< Hash of the canonical bitstream text.
  std::size_t mismatches = 0;    ///< Simulated vs reference output bits.
  std::size_t decoder_ses = 0;   ///< RCM decoder SEs of the switch patterns.
};

/// Simulates `design` on its own fabric and compares every primary output
/// against netlist::evaluate of `input` on seeded random vectors per
/// context; prices the final switch patterns with area::AreaModel.
Verdict judge(const mcfpga::core::CompiledDesign& design,
              const mcfpga::netlist::MultiContextNetlist& input);

std::uint64_t bitstream_digest(const std::string& bitstream_text);

/// Adds the design's QoR (qor_*) and route/place/program/incremental work
/// counters to `counts`.
void add_design_counts(Counts& counts,
                       const mcfpga::core::CompiledDesign& design,
                       std::size_t decoder_ses);

/// Metric-name slugs of the delta-fallback reasons cache::CompileService
/// records; any other reason counts as "other".
inline constexpr const char* kFallbackSlugs[] = {
    "compile_options_changed",      "closure_loop_requested",
    "diff_exceeds_threshold",       "negotiated_multi_context_edit",
    "fabric_resized",               "cluster_count_changed",
    "terminal_count_changed",       "too_many_nets_invalidated",
    "delta_route_did_not_converge", "kept_re_routed_wire_overlap",
    "full_reprogram",               "other"};

/// Slug of a delta-fallback reason (one of kFallbackSlugs).
std::string fallback_slug(const std::string& reason);

}  // namespace perfbench
