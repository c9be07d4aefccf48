// In-memory content-addressed design store: a bounded, LRU-evicted map
// from 64-bit flow keys (cache/key.hpp) to immutable design artifacts,
// plus the pattern interner that stores each distinct switch/bitstream
// ContextPattern once across every cached design.
//
// One compile is one entry: a DesignArtifact holds the whole compiled
// design.  Artifacts are handed out as shared_ptr<const DesignArtifact>:
// eviction drops the cache's reference, never a consumer's, and artifacts
// holding interned pattern ids release them from their destructors
// (PatternSet), so LRU eviction and interning compose without dangling
// ids.
//
// Neither class is thread-safe; the compile service serializes access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "config/bitstream.hpp"
#include "config/pattern.hpp"
#include "core/flow.hpp"

namespace mcfpga::cache {

/// Deduplicating, refcounted store of ContextPatterns.  Identical patterns
/// (by per-context values) share one id; freed ids are recycled
/// lowest-first, so id assignment is deterministic for a given
/// intern/release sequence.
class PatternInterner {
 public:
  using Id = std::uint32_t;

  /// Returns the id for `pattern`, storing it on first sight; the caller
  /// owns one reference (release() it).
  Id intern(const config::ContextPattern& pattern);
  /// Adds a reference to an existing id.
  void retain(Id id);
  /// Drops a reference; the last release recycles the id.
  void release(Id id);

  const config::ContextPattern& pattern(Id id) const;
  std::size_t ref_count(Id id) const;

  /// Distinct live patterns.
  std::size_t num_live() const { return index_.size(); }
  /// Total intern() calls that found an existing pattern.
  std::size_t dedup_hits() const { return dedup_hits_; }
  /// Approximate heap bytes of the live patterns.
  std::size_t pattern_bytes() const;

 private:
  struct Slot {
    /// Placeholder shape (smallest valid context count); overwritten by
    /// the first intern() into this slot.
    config::ContextPattern pattern{2};
    std::size_t refs = 0;
  };
  Slot& checked_slot(Id id);
  const Slot& checked_slot(Id id) const;

  std::vector<Slot> slots_;
  std::unordered_map<BitVector, Id, BitVectorHash> index_;
  std::deque<Id> free_ids_;
  std::size_t dedup_hits_ = 0;
};

/// Order-preserving owning collection of interner ids (duplicates
/// allowed).  Copying retains every id, destruction releases them — the
/// RAII edge that keeps cached artifacts and the interner consistent
/// under LRU eviction.
class PatternSet {
 public:
  PatternSet() = default;
  explicit PatternSet(PatternInterner* interner) : interner_(interner) {}
  PatternSet(const PatternSet& other);
  PatternSet& operator=(const PatternSet& other);
  PatternSet(PatternSet&& other) noexcept;
  PatternSet& operator=(PatternSet&& other) noexcept;
  ~PatternSet() { clear(); }

  void add(const config::ContextPattern& pattern) {
    ids_.push_back(interner_->intern(pattern));
  }
  const config::ContextPattern& pattern(std::size_t i) const {
    return interner_->pattern(ids_.at(i));
  }
  std::size_t size() const { return ids_.size(); }
  const std::vector<PatternInterner::Id>& ids() const { return ids_; }
  void clear();

 private:
  PatternInterner* interner_ = nullptr;
  std::vector<PatternInterner::Id> ids_;
};

/// One compiled design as the cache stores it.  Its switch patterns and
/// bitstream rows go through the PatternInterner, so a corpus of cached
/// designs keeps each distinct ContextPattern once.  The artifact has
/// three parts:
///   - `value`: everything else.  It holds no interner ids, so a hit may
///     keep reading it after the cache lock is released;
///   - `ids`: the interned patterns, released (under the lock) when the
///     artifact dies;
///   - `patterns`: the interned patterns materialized back into values.
///     The first hit builds it under the lock (the only time a hit reads
///     the interner); every later hit shares it.
struct DesignArtifact {
  struct Row {
    std::string name;
    config::ResourceKind kind = config::ResourceKind::kRoutingSwitch;
  };
  struct Value {
    /// Switch patterns, bitstream rows, stage timings and cache stats
    /// left empty; the bitstream keeps its context count.
    core::CompiledDesign design;
    std::vector<Row> rows;  ///< Bitstream rows; patterns interned.
    std::uint64_t placement_problem_hash = 0;
  };
  struct Patterns {
    /// Both the routing's and the program's (ProgramStage copies one
    /// into the other).
    std::vector<config::ContextPattern> switch_patterns;
    config::Bitstream bitstream;  ///< Hits share its row storage.
  };

  std::shared_ptr<const Value> value;
  /// The switch patterns, then one per bitstream row.
  PatternSet ids;
  mutable std::shared_ptr<const Patterns> patterns;
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

  /// Adds `bytes` to a live entry's size estimate (for data an artifact
  /// builds after its store, like its materialized patterns), then evicts
  /// as store() does.  No-op when `key` is absent.
  void charge(std::uint64_t key, std::size_t bytes);

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

  void evict_over_limit();

  Limits limits_{};
  Counters counters_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Front = most recently used.
  std::list<std::uint64_t> lru_;
  std::size_t bytes_ = 0;
};

}  // namespace mcfpga::cache
