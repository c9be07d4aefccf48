// Per-configuration-bit context patterns and their classification
// (paper Section 2, Figs. 3-5).
//
// A ContextPattern records the value one configuration bit takes in each of
// the n contexts.  The paper's key observation is that for realistic
// multi-context workloads almost all patterns fall into cheap classes:
//
//   kConstant   (Fig. 3)  all-0 / all-1           -> 1 switch element
//   kSingleBit  (Fig. 4)  equals Sj or ~Sj        -> 1 switch element
//   kComplex    (Fig. 5)  anything else           -> SE mux tree (~4 SEs @ 4 ctx)
//
// The classification generalizes beyond 4 contexts: a pattern is kSingleBit
// iff its value is a function of exactly one context-ID bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mcfpga::config {

enum class PatternClass {
  kConstant,   ///< Fig. 3: context-independent (all-0 or all-1).
  kSingleBit,  ///< Fig. 4: equals one context-ID bit or its complement.
  kComplex,    ///< Fig. 5: depends on two or more context-ID bits.
};

std::string to_string(PatternClass cls);

/// The value of one configuration bit in each context, as one machine word:
/// bit c of word() holds the value in context c, and the bits at or above
/// num_contexts() are zero.  Context counts are powers of two in [2, 64]
/// (is_valid_context_count), so every pattern fits one uint64_t, and the
/// patterns of one context count are equal iff their words are (maps over
/// a bitstream's rows key them by word()).
class ContextPattern {
 public:
  /// All-`value` pattern over `num_contexts` contexts.
  explicit ContextPattern(std::size_t num_contexts, bool value = false);
  /// From the context-value word; its bits at or above `num_contexts`
  /// must be zero.
  static ContextPattern from_word(std::size_t num_contexts,
                                  std::uint64_t word);
  /// Parses "1000"-style strings written MSB-first like the paper's figures:
  /// "1000" means (C3,C2,C1,C0) = (1,0,0,0).
  static ContextPattern from_string(const std::string& msb_first);
  /// The pattern that mirrors ID bit Sj (optionally complemented).
  static ContextPattern for_id_bit(std::size_t num_contexts, std::size_t bit,
                                   bool inverted);

  std::size_t num_contexts() const { return num_contexts_; }
  bool value_in(std::size_t context) const;
  void set_value(std::size_t context, bool value);
  std::uint64_t word() const { return word_; }

  /// Paper-style MSB-first rendering: (C3..C0)=(1,0,0,0) -> "1000".
  std::string to_string() const;

  bool operator==(const ContextPattern&) const = default;

 private:
  std::uint64_t word_ = 0;
  std::size_t num_contexts_ = 0;
};

// Cached designs store their switch patterns and bitstream rows by value.
// With a 40-byte pattern (a general BitVector) that raised perfbench
// cold_flow's peak RSS by ~60%, from 66 to 100-111 MB (4-core host).
static_assert(sizeof(ContextPattern) <= 16,
              "a ContextPattern is one word plus its context count");

/// Result of classifying a pattern.
struct PatternInfo {
  PatternClass cls = PatternClass::kComplex;
  /// For kConstant: the constant value.
  bool constant_value = false;
  /// For kSingleBit: which ID bit, and whether complemented.
  std::size_t id_bit = 0;
  bool inverted = false;

  /// "const 0", "S1", "~S0", "complex", ... for reports.
  std::string describe() const;
};

/// Classifies a pattern per the Figs. 3-5 taxonomy.
PatternInfo classify(const ContextPattern& pattern);

/// Enumerates all 2^n patterns for small n (n <= 16), in numeric order of
/// their context-value word.  Used by exhaustive tests and the Fig. 3-5
/// census bench.
std::vector<ContextPattern> all_patterns(std::size_t num_contexts);

/// True iff the pattern is periodic with the given period, e.g. "0101" has
/// period 2 (the paper calls this "regularity": repeating bits in an order).
bool has_period(const ContextPattern& pattern, std::size_t period);

/// Smallest period of the pattern (1 = constant, num_contexts = aperiodic).
std::size_t smallest_period(const ContextPattern& pattern);

}  // namespace mcfpga::config
