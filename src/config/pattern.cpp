#include "config/pattern.hpp"

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::config {

std::string to_string(PatternClass cls) {
  switch (cls) {
    case PatternClass::kConstant:
      return "constant";
    case PatternClass::kSingleBit:
      return "single-bit";
    case PatternClass::kComplex:
      return "complex";
  }
  return "?";
}

namespace {

/// Word of ID bit Sj over 64 contexts: bit c is (c >> j) & 1 (Table 2).
constexpr std::uint64_t kIdBitWords[] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// The context bits of an n-context word.  (1 << 64) is undefined, so
/// n = 64 is spelled out.
std::uint64_t all_contexts(std::size_t n) {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

ContextPattern::ContextPattern(std::size_t num_contexts, bool value)
    : num_contexts_(num_contexts) {
  MCFPGA_REQUIRE(is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
  word_ = value ? all_contexts(num_contexts) : 0;
}

ContextPattern ContextPattern::from_word(std::size_t num_contexts,
                                         std::uint64_t word) {
  ContextPattern p(num_contexts);
  MCFPGA_REQUIRE((word & ~all_contexts(num_contexts)) == 0,
                 "pattern word has bits beyond its context count");
  p.word_ = word;
  return p;
}

ContextPattern ContextPattern::from_string(const std::string& msb_first) {
  // The width is checked first, so an oversized string costs nothing.
  ContextPattern p(msb_first.size());
  for (const char c : msb_first) {
    MCFPGA_REQUIRE(c == '0' || c == '1', "bit string must contain only 0/1");
    p.word_ = (p.word_ << 1) | (c == '1' ? 1 : 0);
  }
  return p;
}

ContextPattern ContextPattern::for_id_bit(std::size_t num_contexts,
                                          std::size_t bit, bool inverted) {
  MCFPGA_REQUIRE(bit < num_id_bits(num_contexts), "ID bit out of range");
  const std::uint64_t word = inverted ? ~kIdBitWords[bit] : kIdBitWords[bit];
  return from_word(num_contexts, word & all_contexts(num_contexts));
}

bool ContextPattern::value_in(std::size_t context) const {
  MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
  return (word_ >> context) & 1;
}

void ContextPattern::set_value(std::size_t context, bool value) {
  MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
  const std::uint64_t bit = std::uint64_t{1} << context;
  word_ = value ? word_ | bit : word_ & ~bit;
}

std::string ContextPattern::to_string() const {
  std::string out(num_contexts_, '0');
  for (std::size_t c = 0; c < num_contexts_; ++c) {
    if ((word_ >> c) & 1) {
      out[num_contexts_ - 1 - c] = '1';
    }
  }
  return out;
}

std::string PatternInfo::describe() const {
  switch (cls) {
    case PatternClass::kConstant:
      return constant_value ? "const 1" : "const 0";
    case PatternClass::kSingleBit:
      return id_bit_name(id_bit, inverted);
    case PatternClass::kComplex:
      return "complex";
  }
  return "?";
}

PatternInfo classify(const ContextPattern& pattern) {
  const std::size_t n = pattern.num_contexts();
  const std::uint64_t word = pattern.word();
  const std::uint64_t ones = all_contexts(n);
  PatternInfo info;

  if (word == 0 || word == ones) {
    info.cls = PatternClass::kConstant;
    info.constant_value = word != 0;
    return info;
  }

  for (std::size_t bit = 0; bit < num_id_bits(n); ++bit) {
    const std::uint64_t id = kIdBitWords[bit] & ones;
    if (word == id || word == (id ^ ones)) {
      info.cls = PatternClass::kSingleBit;
      info.id_bit = bit;
      info.inverted = word != id;
      return info;
    }
  }

  info.cls = PatternClass::kComplex;
  return info;
}

std::vector<ContextPattern> all_patterns(std::size_t num_contexts) {
  MCFPGA_REQUIRE(num_contexts <= 16,
                 "exhaustive enumeration limited to 16 contexts");
  const std::size_t count = std::size_t{1} << num_contexts;
  std::vector<ContextPattern> out;
  out.reserve(count);
  for (std::size_t word = 0; word < count; ++word) {
    out.push_back(ContextPattern::from_word(num_contexts, word));
  }
  return out;
}

bool has_period(const ContextPattern& pattern, std::size_t period) {
  const std::size_t n = pattern.num_contexts();
  MCFPGA_REQUIRE(period >= 1 && period <= n, "period out of range");
  if (n % period != 0) {
    return false;
  }
  for (std::size_t c = period; c < n; ++c) {
    if (pattern.value_in(c) != pattern.value_in(c - period)) {
      return false;
    }
  }
  return true;
}

std::size_t smallest_period(const ContextPattern& pattern) {
  const std::size_t n = pattern.num_contexts();
  for (std::size_t period = 1; period < n; ++period) {
    if (n % period == 0 && has_period(pattern, period)) {
      return period;
    }
  }
  return n;
}

}  // namespace mcfpga::config
