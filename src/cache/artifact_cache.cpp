#include "cache/artifact_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace mcfpga::cache {

// ---------------------------------------------------------------------------
// PatternInterner

PatternInterner::Id PatternInterner::intern(
    const config::ContextPattern& pattern) {
  const auto it = index_.find(pattern.values());
  if (it != index_.end()) {
    ++slots_[it->second].refs;
    ++dedup_hits_;
    return it->second;
  }
  Id id = 0;
  if (!free_ids_.empty()) {
    id = free_ids_.front();
    free_ids_.pop_front();
  } else {
    id = static_cast<Id>(slots_.size());
    slots_.emplace_back();
  }
  slots_[id].pattern = pattern;
  slots_[id].refs = 1;
  index_.emplace(pattern.values(), id);
  return id;
}

void PatternInterner::retain(Id id) { ++checked_slot(id).refs; }

void PatternInterner::release(Id id) {
  Slot& slot = checked_slot(id);
  MCFPGA_REQUIRE(slot.refs > 0, "pattern interner double release");
  if (--slot.refs == 0) {
    index_.erase(slot.pattern.values());
    // Lowest-first recycling keeps id assignment deterministic: the next
    // intern after identical churn always lands on the same id.
    const auto pos = std::lower_bound(free_ids_.begin(), free_ids_.end(), id);
    free_ids_.insert(pos, id);
  }
}

const config::ContextPattern& PatternInterner::pattern(Id id) const {
  return checked_slot(id).pattern;
}

std::size_t PatternInterner::ref_count(Id id) const {
  return id < slots_.size() ? slots_[id].refs : 0;
}

std::size_t PatternInterner::pattern_bytes() const {
  std::size_t bytes = 0;
  for (const Slot& slot : slots_) {
    if (slot.refs > 0) {
      bytes += sizeof(Slot) + slot.pattern.values().words().size() * 8;
    }
  }
  return bytes;
}

PatternInterner::Slot& PatternInterner::checked_slot(Id id) {
  MCFPGA_REQUIRE(id < slots_.size() && slots_[id].refs > 0,
                 "pattern interner: dead or out-of-range id");
  return slots_[id];
}

const PatternInterner::Slot& PatternInterner::checked_slot(Id id) const {
  MCFPGA_REQUIRE(id < slots_.size() && slots_[id].refs > 0,
                 "pattern interner: dead or out-of-range id");
  return slots_[id];
}

// ---------------------------------------------------------------------------
// PatternSet

PatternSet::PatternSet(const PatternSet& other)
    : interner_(other.interner_), ids_(other.ids_) {
  for (const PatternInterner::Id id : ids_) {
    interner_->retain(id);
  }
}

PatternSet& PatternSet::operator=(const PatternSet& other) {
  if (this != &other) {
    PatternSet copy(other);
    *this = std::move(copy);
  }
  return *this;
}

PatternSet::PatternSet(PatternSet&& other) noexcept
    : interner_(other.interner_), ids_(std::move(other.ids_)) {
  other.ids_.clear();
  other.interner_ = nullptr;
}

PatternSet& PatternSet::operator=(PatternSet&& other) noexcept {
  if (this != &other) {
    clear();
    interner_ = other.interner_;
    ids_ = std::move(other.ids_);
    other.ids_.clear();
    other.interner_ = nullptr;
  }
  return *this;
}

void PatternSet::clear() {
  for (const PatternInterner::Id id : ids_) {
    interner_->release(id);
  }
  ids_.clear();
}

// ---------------------------------------------------------------------------
// ArtifactCache

std::shared_ptr<const DesignArtifact> ArtifactCache::find(
    std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++counters_.hits;
  return it->second.value;
}

void ArtifactCache::store(std::uint64_t key,
                          std::shared_ptr<const DesignArtifact> value,
                          std::size_t bytes) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), bytes, lru_.begin()});
    bytes_ += bytes;
  }
  ++counters_.stores;
  evict_over_limit();
}

void ArtifactCache::charge(std::uint64_t key, std::size_t bytes) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return;
  }
  it->second.bytes += bytes;
  bytes_ += bytes;
  evict_over_limit();
}

void ArtifactCache::evict_over_limit() {
  // Never evict the sole (just-touched) entry: an artifact larger than
  // max_bytes still caches, it just caches alone.
  while ((entries_.size() > limits_.max_entries || bytes_ > limits_.max_bytes) &&
         lru_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

}  // namespace mcfpga::cache
