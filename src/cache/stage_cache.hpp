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
// A stored design is an immutable copy of the compiled design, patterns
// and all: a ContextPattern is one 16-byte word (config/pattern.hpp), so
// the switch patterns and bitstream rows are stored by value.  The store
// copies the design once; its bitstream shares the compiled design's rows
// (config::Bitstream is copy-on-write), and so does every hit's copy.
//
// Thread safety: one mutex guards the LRU map, held only for the lookup
// in find() and the insertion in store().  A hit copies the design out of
// its shared_ptr<const DesignArtifact> with the mutex released, so the
// serve daemon's concurrent jobs restore in parallel from ONE shared
// cache; a design evicted mid-restore stays alive until its reader drops
// it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "cache/artifact_cache.hpp"

namespace mcfpga::cache {

class FlowCache {
 public:
  explicit FlowCache(ArtifactCache::Limits limits = {})
      : artifacts_(limits) {}

  /// The design stored under `key` (null on a miss), counting a hit or a
  /// miss.  Copy the design out of it with no lock held.
  std::shared_ptr<const DesignArtifact> find(std::uint64_t key);

  /// Stores a copy of `design` (a full-pipeline result) and its
  /// placement-problem hash under `key`.
  void store(std::uint64_t key, const core::CompiledDesign& design,
             std::uint64_t placement_problem_hash);

  /// Consistent locked snapshot of the store's counters, safe to call
  /// while other threads compile (artifacts() is not).
  struct Stats {
    ArtifactCache::Counters counters;
  };
  Stats stats() const;

  /// Direct access for single-threaded callers (tests, benches).
  const ArtifactCache& artifacts() const { return artifacts_; }

 private:
  mutable std::mutex mu_;
  ArtifactCache artifacts_;
};

}  // namespace mcfpga::cache
