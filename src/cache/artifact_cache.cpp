#include "cache/artifact_cache.hpp"

#include <utility>

namespace mcfpga::cache {

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
