// Stable 64-bit content hashing for cache keys.
//
// FNV-1a/64 over an explicit little-endian byte stream: every integer is
// decomposed into bytes least-significant first before it touches the
// state, and floating-point values go through their IEEE-754 bit pattern,
// so a given value sequence digests to the same 64-bit key on any
// platform, compiler, or build mode.  The content-addressed design cache
// (src/cache/) keys every compiled design with digests built here, so
// this stability is what makes cached designs shareable across machines
// and auditable offline.
//
// Known-answer vectors (checked by tests/test_common.cpp):
//   fnv1a("")            == 0xcbf29ce484222325  (the offset basis)
//   fnv1a("a")           == 0xaf63dc4c8601ec8c
//   fnv1a("foobar")      == 0x85944171f73967e8
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/bitvector.hpp"

namespace mcfpga::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// One FNV-1a/64 absorption step.
constexpr std::uint64_t fnv1a_byte(std::uint64_t state, std::uint8_t byte) {
  return (state ^ byte) * kFnvPrime;
}

/// FNV-1a/64 of a byte string, continuing from `state`.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t state = kFnvOffsetBasis) {
  for (const char c : bytes) {
    state = fnv1a_byte(state, static_cast<std::uint8_t>(c));
  }
  return state;
}

/// Folds `value` into `seed` byte-by-byte (little-endian), so combining is
/// order-sensitive: hash_combine(a, b) != hash_combine(b, a) in general.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    seed = fnv1a_byte(seed, static_cast<std::uint8_t>(value >> (8 * i)));
  }
  return seed;
}

/// Incremental FNV-1a/64 hasher with typed feeders.  Every feeder returns
/// *this so field lists chain; variable-length payloads (strings, bit
/// vectors) are length-prefixed so adjacent fields cannot alias.
class Hasher {
 public:
  Hasher& u64(std::uint64_t value) {
    state_ = hash_combine(state_, value);
    return *this;
  }
  Hasher& size(std::size_t value) {
    return u64(static_cast<std::uint64_t>(value));
  }
  Hasher& i64(std::int64_t value) {
    return u64(static_cast<std::uint64_t>(value));
  }
  Hasher& boolean(bool value) {
    state_ = fnv1a_byte(state_, value ? 1 : 0);
    return *this;
  }
  /// IEEE-754 bit pattern, so -0.0 != +0.0 and every NaN payload is its
  /// own key — exact, never rounds.
  Hasher& f64(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return u64(bits);
  }
  Hasher& str(std::string_view value) {
    size(value.size());
    state_ = fnv1a(value, state_);
    return *this;
  }
  Hasher& bits(const BitVector& value) {
    size(value.size());
    for (const std::uint64_t word : value.words()) {
      u64(word);
    }
    return *this;
  }
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffsetBasis;
};

}  // namespace mcfpga::common
