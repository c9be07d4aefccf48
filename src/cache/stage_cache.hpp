// FlowCache: the content-addressed design cache behind
// cache::CompileService::compile.
//
// One compile is one entry, keyed by the flow key of its inputs
// (netlist x fabric x options, cache/key.hpp).  The service looks the key
// up before any stage runs: a hit returns the stored design, bit-identical
// to running the pipeline (tests/test_cache.cpp's fingerprint comparisons
// enforce it), and a miss runs the pipeline and stores the design it
// produced.
//
// Stored designs are immutable value snapshots.  Switch patterns and
// bitstream rows go through the PatternInterner, so a corpus of cached
// designs stores each distinct ContextPattern once; artifacts hold
// refcounted ids (PatternSet) and release them when evicted.  The interned
// ids stay the stored form: the first hit on a design materializes its
// patterns once into a shared immutable snapshot, and every later hit
// copies from that snapshot (sharing its bitstream rows outright,
// config::Bitstream being copy-on-write).
//
// Thread safety: the store and interner themselves are not thread-safe,
// so one mutex guards them.  find() holds it only for the map lookup
// (plus the one-time materialization), store() only for interning and
// storing.  A hit copies the design out of interner-free shared_ptr
// snapshots with the mutex released, so the serve daemon's concurrent jobs
// restore in parallel from ONE shared cache; a design evicted mid-restore
// stays alive until its reader drops it.  Artifacts holding interner ids
// are only ever released under the mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "cache/artifact_cache.hpp"

namespace mcfpga::cache {

class FlowCache {
 public:
  explicit FlowCache(ArtifactCache::Limits limits = {})
      : artifacts_(limits) {}

  /// What a hit reads of a stored design.  Both parts are interner-free,
  /// so they stay valid after the lock is released.
  struct Hit {
    std::shared_ptr<const DesignArtifact::Value> value;
    std::shared_ptr<const DesignArtifact::Patterns> patterns;

    explicit operator bool() const { return value != nullptr; }
    /// A copy of the stored design; its bitstream shares the snapshot's
    /// rows.  Call with no lock held.
    core::CompiledDesign design() const;
  };

  /// Looks the design stored under `key` up, counting a hit or a miss.
  Hit find(std::uint64_t key);

  /// Stores `design` (a full-pipeline result) and its placement-problem
  /// hash under `key`, interning its switch patterns and bitstream rows.
  void store(std::uint64_t key, const core::CompiledDesign& design,
             std::uint64_t placement_problem_hash);

  /// Consistent locked snapshot of the store + interner counters, safe to
  /// call while other threads compile (the accessors below are not).
  struct Stats {
    ArtifactCache::Counters counters;
    std::size_t live_patterns = 0;
    std::size_t pattern_dedup_hits = 0;
  };
  Stats stats() const;

  /// Direct access for single-threaded callers (tests, benches).
  const ArtifactCache& artifacts() const { return artifacts_; }
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
