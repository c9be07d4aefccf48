// Incremental-recompile driver over the content-addressed design cache.
//
// CompileService::compile() is compile() behind one FlowCache lookup:
// recompiling an unchanged design is a pure lookup that runs no stage,
// and any other compile runs the whole pipeline and stores its design.
// compile_incremental() is the delta path for small edits: it diffs the
// previous and edited netlists, re-runs only the cheap front-end
// (techmap/sharing/planes/cluster, uncached), and places incrementally.
// When the placement problem is unchanged it reuses the previous placement
// verbatim.  Otherwise it runs an ECO placement: every cluster whose
// content (the (context, node name) members of its sharing classes)
// survived keeps its site and every surviving I/O terminal keeps its pad,
// and only the rest are placed into the sites and pads left free.  It then
// rips up and re-routes only the nets whose physical endpoints changed,
// pinning every kept net's wires with a prohibitive congestion pressure
// so the partial route composes with the kept trees
// (RouterCore::route_pass), and reprograms only the bitstream rows of
// changed switches and clusters.  Any condition the delta path cannot
// honor (big diff, changed options, a design that no longer fits the
// fabric, closure flows, multi-context edits of an interleaved flow, too
// many invalidated nets, non-convergence, wire overlap) falls back to an
// ordinary compile(), recorded in CacheStats::delta_fallback.  The delta
// path itself neither looks up nor stores a design.
//
// The delta path is single-threaded by construction, so its results are
// deterministic for any worker-count setting; the full path inherits the
// placer/router bit-identical-for-any-thread-count contract.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/stage_cache.hpp"
#include "core/flow.hpp"
#include "core/stages.hpp"

namespace mcfpga::cache {

/// Delta-path policy.  Placement has no knobs: ECO placement is a
/// deterministic matching, not an anneal.
struct IncrementalOptions {
  /// Bounds of the design store.
  ArtifactCache::Limits limits{};
  /// Fall back to full recompile when more than this fraction of DFG
  /// nodes changed (union over contexts).
  double max_diff_fraction = 0.25;
  /// Fall back when more than this fraction of route nets lost their
  /// previous trees after ECO placement (the partial route would do most
  /// of a full route).
  double max_invalidated_fraction = 0.6;
  /// Additive present-congestion cost pinned onto every wire node a kept
  /// net occupies, so re-routed nets detour around the kept trees.
  double keep_pressure = 1e6;
};

/// Node-level difference between two multi-context netlists.
struct NetlistDiff {
  std::size_t changed_nodes = 0;  ///< Summed over contexts.
  std::size_t total_nodes = 0;    ///< max(before, after), summed.
  /// Changed (or added/removed) node count per context.
  std::vector<std::size_t> changed_per_context;
  double fraction() const {
    return total_nodes == 0
               ? 0.0
               : static_cast<double>(changed_nodes) /
                     static_cast<double>(total_nodes);
  }
};

/// Compares per-context node arrays positionally (type, name, fanins,
/// truth table) plus the designated outputs; contexts beyond the common
/// count diff in full.
NetlistDiff diff_netlists(const netlist::MultiContextNetlist& before,
                          const netlist::MultiContextNetlist& after);

/// A compiled design plus the inputs that produced it — the handle edits
/// chain from.
struct Compiled {
  netlist::MultiContextNetlist netlist;  ///< The input (pre tech-map).
  arch::FabricSpec spec;                 ///< Original, pre-auto-growth.
  core::CompileOptions options;
  core::CompiledDesign design;
  /// Content hash of the placement problem (nets, weights, criticality);
  /// equality (with equal cluster and terminal counts) lets
  /// compile_incremental reuse the placement verbatim instead of running
  /// ECO placement.
  std::uint64_t placement_problem_hash = 0;
};

/// Thread safety: compile() and compile_incremental() may be called from
/// several threads at once against one service (the serve daemon does) —
/// the shared FlowCache locks only its own lookups/stores, and the
/// fallback-reason ledger has its own lock.  A design's cache.hits /
/// cache.misses count its own compile's lookup only: 1/0 for a hit, 0/1
/// for a miss, 0/0 for a delta-path recompile.  Results stay bit-identical
/// to single-threaded calls because every compile is a pure function of
/// its inputs and cache hits restore bit-identical snapshots.
class CompileService {
 public:
  explicit CompileService(IncrementalOptions options = {})
      : options_(options), cache_(options.limits) {}

  /// One design-cache lookup, then the full pipeline on a miss (whose
  /// design is stored).  `observer` (optional, not owned) sees a hit as
  /// one "cache" step and a miss as the pipeline's stages: progress
  /// streaming plus cooperative cancellation (core::StageObserver).
  Compiled compile(const netlist::MultiContextNetlist& netlist,
                   const arch::FabricSpec& spec,
                   const core::CompileOptions& options = {},
                   core::StageObserver* observer = nullptr);

  /// Delta recompile of `previous` under the edited netlist; `options`
  /// must match previous.options for the delta path to engage (any
  /// difference falls back to compile()).  The observer sees the delta
  /// path's own place/route/timing/program blocks as stage boundaries
  /// too, so cancellation and deadlines work on both paths.
  Compiled compile_incremental(const Compiled& previous,
                               const netlist::MultiContextNetlist& edited,
                               const core::CompileOptions& options,
                               core::StageObserver* observer = nullptr);

  const ArtifactCache& artifacts() const { return cache_.artifacts(); }
  FlowCache& flow_cache() { return cache_; }

  /// Service-lifetime delta-fallback breakdown (reason -> count).
  std::map<std::string, std::size_t> fallback_reasons() const;

 private:
  Compiled fallback(const Compiled& previous,
                    const netlist::MultiContextNetlist& edited,
                    const core::CompileOptions& options,
                    const char* reason, core::StageObserver* observer);
  void count_fallback(const std::string& reason);
  /// `hits` / `misses`: the compile's own design-cache lookup.
  void fill_cache_stats(core::CompiledDesign& design, std::size_t hits,
                        std::size_t misses) const;

  IncrementalOptions options_;
  FlowCache cache_;
  mutable std::mutex fallback_mu_;
  std::map<std::string, std::size_t> fallback_reasons_;
};

}  // namespace mcfpga::cache
