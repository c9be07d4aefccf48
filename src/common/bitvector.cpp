#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace mcfpga {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t word_count(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

BitVector::BitVector(std::size_t size, bool value) : size_(size) {
  const std::uint64_t fill = value ? ~std::uint64_t{0} : 0;
  if (size > kInlineBits) {
    heap_.assign(word_count(size), fill);
  } else {
    inline_ = fill;
  }
  mask_tail();
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    MCFPGA_REQUIRE(c == '0' || c == '1', "bit string must contain only 0/1");
    // MSB-first: bits[0] is the highest index.
    v.set(bits.size() - 1 - i, c == '1');
  }
  return v;
}

BitVector BitVector::from_word(std::uint64_t word, std::size_t size) {
  MCFPGA_REQUIRE(size <= kWordBits, "from_word supports at most 64 bits");
  BitVector v(size);
  v.inline_ = word;
  v.mask_tail();
  return v;
}

void BitVector::check_index(std::size_t i) const {
  if (i >= size_) {
    throw InvalidArgument("BitVector index " + std::to_string(i) +
                          " out of range (size " + std::to_string(size_) + ")");
  }
}

void BitVector::mask_tail() {
  const std::size_t n = num_words();
  if (n == 0) {
    inline_ = 0;
    return;
  }
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0) {
    data()[n - 1] &= (std::uint64_t{1} << tail) - 1;
  }
}

bool BitVector::get(std::size_t i) const {
  check_index(i);
  return (data()[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    data()[i / kWordBits] |= mask;
  } else {
    data()[i / kWordBits] &= ~mask;
  }
}

void BitVector::flip(std::size_t i) {
  check_index(i);
  data()[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
}

void BitVector::fill(bool value) {
  std::fill_n(data(), num_words(), value ? ~std::uint64_t{0} : 0);
  mask_tail();
}

void BitVector::push_back(bool value) {
  ++size_;
  if (size_ == kInlineBits + 1) {
    heap_ = {inline_, 0};  // outgrew the inline word
    inline_ = 0;
  } else if (size_ > kInlineBits && word_count(size_) > heap_.size()) {
    heap_.push_back(0);
  }
  set(size_ - 1, value);
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (const auto w : words()) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

bool BitVector::all_equal(bool value) const {
  return popcount() == (value ? size_ : 0);
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  MCFPGA_REQUIRE(size_ == other.size_, "hamming_distance size mismatch");
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    n += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return n;
}

std::uint64_t BitVector::to_word() const {
  MCFPGA_REQUIRE(size_ <= kWordBits, "to_word requires at most 64 bits");
  return inline_;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) {
      s[size_ - 1 - i] = '1';
    }
  }
  return s;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ &&
         std::equal(data(), data() + num_words(), other.data());
}

BitVector& BitVector::operator^=(const BitVector& other) {
  MCFPGA_REQUIRE(size_ == other.size_, "operator^= size mismatch");
  std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] ^= b[i];
  }
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  MCFPGA_REQUIRE(size_ == other.size_, "operator&= size mismatch");
  std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] &= b[i];
  }
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  MCFPGA_REQUIRE(size_ == other.size_, "operator|= size mismatch");
  std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] |= b[i];
  }
  return *this;
}

std::size_t BitVector::hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const auto w : words()) {
    h ^= w;
    h *= 1099511628211ull;  // FNV prime
  }
  h ^= size_;
  h *= 1099511628211ull;
  return static_cast<std::size_t>(h);
}

}  // namespace mcfpga
