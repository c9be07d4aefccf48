// FlowCache: the content-addressed stage cache behind the compile
// pipeline's StageCacheHook seam (core/stages.hpp).
//
// attach() seeds a FlowContext's key chain with the flow base key
// (netlist x fabric x options, cache/key.hpp); run_pipeline() then calls
// before_stage()/after_stage() around every stage.  before_stage advances
// the chain (key(stage N) folds in key(stage N-1) and the stage name) and
// looks the stage's artifact up; a hit restores the stage's outputs into
// the context — bit-identically to running the stage, which is what
// tests/test_cache.cpp's fingerprint comparisons enforce — and a miss
// lets the stage run, after which after_stage publishes its outputs.
//
// Stored artifacts are immutable value snapshots.  Switch patterns and
// bitstream rows go through the PatternInterner, so a corpus of cached
// designs stores each distinct ContextPattern once; artifacts hold
// refcounted ids (PatternSet) and release them when evicted.  The interned
// ids stay the stored form: the first hit on a route, program or closure
// artifact materializes its patterns once into a shared immutable
// snapshot, and every later hit copies from that snapshot (a program hit
// shares the snapshot's bitstream rows outright, config::Bitstream being
// copy-on-write).
//
// Thread safety: the store and interner themselves are not thread-safe,
// so one mutex guards them.  A hook call holds it only for the map lookup
// (plus the one-time materialization) and for interning + storing a
// published artifact.  Restores copy out of interner-free shared_ptr
// snapshots with the mutex released, so the serve daemon's concurrent jobs
// restore in parallel from ONE shared cache; an artifact evicted
// mid-restore stays alive until its reader drops it.  Artifacts holding
// interner ids are only ever released under the mutex.
#pragma once

#include <cstddef>
#include <mutex>

#include "cache/artifact_cache.hpp"
#include "core/stages.hpp"

namespace mcfpga::cache {

class FlowCache : public core::StageCacheHook {
 public:
  explicit FlowCache(ArtifactCache::Limits limits = {})
      : artifacts_(limits) {}

  /// Seeds ctx.cache_key from ctx's inputs and points ctx.cache at this.
  void attach(core::FlowContext& ctx);

  /// Counts the lookup into ctx.cache_hits / ctx.cache_misses.
  bool before_stage(const char* stage, core::FlowContext& ctx) override;
  void after_stage(const char* stage, core::FlowContext& ctx) override;

  /// Consistent locked snapshot of the store + interner counters, safe to
  /// call while other threads compile (the accessors below are not).
  struct Stats {
    ArtifactCache::Counters counters;
    std::size_t live_patterns = 0;
    std::size_t pattern_dedup_hits = 0;
  };
  Stats stats() const;

  /// Direct access for single-threaded callers (tests, benches).
  ArtifactCache& artifacts() { return artifacts_; }
  const ArtifactCache& artifacts() const { return artifacts_; }
  PatternInterner& patterns() { return interner_; }
  const PatternInterner& patterns() const { return interner_; }

 private:
  mutable std::mutex mu_;
  // Declaration order is load-bearing: cached artifacts hold PatternSets
  // that release interner ids from their destructors, so the interner
  // must be destroyed AFTER the artifact store.
  PatternInterner interner_;
  ArtifactCache artifacts_;
};

}  // namespace mcfpga::cache
