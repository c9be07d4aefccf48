// In-memory content-addressed design store: a bounded, LRU-evicted map
// from 64-bit flow keys (cache/key.hpp) to immutable design artifacts.
//
// One compile is one entry: a DesignArtifact holds the whole compiled
// design by value.  Artifacts are handed out as
// shared_ptr<const DesignArtifact>: eviction drops the cache's reference,
// never a consumer's, so a reader may keep copying from an artifact that
// has since been evicted.
//
// Not thread-safe; the compile service serializes access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/flow.hpp"

namespace mcfpga::cache {

/// One compiled design as the cache stores it.
struct DesignArtifact {
  /// Stage timings and cache stats cleared: a hit reports its own.
  core::CompiledDesign design;
  std::uint64_t placement_problem_hash = 0;
};

/// Bounded LRU store of design artifacts keyed by content hash.
class ArtifactCache {
 public:
  struct Limits {
    std::size_t max_entries = 8;  ///< Designs.
    std::size_t max_bytes = 512ull << 20;
  };
  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t stores = 0;
  };

  ArtifactCache() = default;
  explicit ArtifactCache(Limits limits) : limits_(limits) {}

  /// Looks `key` up; a hit refreshes its LRU position.
  std::shared_ptr<const DesignArtifact> find(std::uint64_t key);

  /// Inserts (or replaces) `key`, then evicts least-recently-used entries
  /// until the limits hold again.  `bytes` is the caller's size estimate
  /// used for the byte bound.
  void store(std::uint64_t key, std::shared_ptr<const DesignArtifact> value,
             std::size_t bytes);

  const Counters& counters() const { return counters_; }
  const Limits& limits() const { return limits_; }
  std::size_t num_entries() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const DesignArtifact> value;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };

  Limits limits_{};
  Counters counters_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Front = most recently used.
  std::list<std::uint64_t> lru_;
  std::size_t bytes_ = 0;
};

}  // namespace mcfpga::cache
