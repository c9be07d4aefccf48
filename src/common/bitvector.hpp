// Dynamic bit vector used for LUT truth tables and configuration planes.
// std::vector<bool> is avoided on purpose: BitVector exposes word-level
// access (needed by the redundancy statistics, which popcount whole
// planes) and has unambiguous copy/compare semantics.
//
// Vectors of up to 64 bits (the truth table of any LUT of up to six
// inputs) keep their word inline, so creating or copying one never
// allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mcfpga {

class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `size` bits, all initialized to `value`.
  explicit BitVector(std::size_t size, bool value = false);
  /// Parses a string of '0'/'1' characters, most-significant bit first.
  static BitVector from_string(const std::string& bits);
  /// Builds from the low `size` bits of `word` (bit 0 = index 0).
  static BitVector from_word(std::uint64_t word, std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Sets every bit to `value`.
  void fill(bool value);
  /// Appends one bit.
  void push_back(bool value);

  /// Number of set bits.
  std::size_t popcount() const;
  /// True if every bit equals `value`.
  bool all_equal(bool value) const;
  /// Number of positions where *this and other differ (sizes must match).
  std::size_t hamming_distance(const BitVector& other) const;

  /// Low 64 bits packed into a word (size() must be <= 64).
  std::uint64_t to_word() const;
  /// "MSB-first" string of '0'/'1', matching from_string round-trip.
  std::string to_string() const;

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// In-place bitwise ops (sizes must match).
  BitVector& operator^=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);

  /// Word-level access for statistics kernels. Tail bits beyond size() are 0.
  std::span<const std::uint64_t> words() const {
    return {data(), num_words()};
  }

  /// FNV-1a hash over the significant bits and the size.
  std::size_t hash() const;

 private:
  static constexpr std::size_t kInlineBits = 64;

  std::size_t num_words() const { return (size_ + 63) / 64; }
  const std::uint64_t* data() const {
    return size_ <= kInlineBits ? &inline_ : heap_.data();
  }
  std::uint64_t* data() {
    return size_ <= kInlineBits ? &inline_ : heap_.data();
  }
  void check_index(std::size_t i) const;
  void mask_tail();

  /// The bits when size_ > kInlineBits (one entry per word); else empty.
  std::vector<std::uint64_t> heap_;
  /// The bits when size_ <= kInlineBits; else 0.
  std::uint64_t inline_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcfpga
