// Unit tests for the common substrate: BitVector, Rng, strings, Table,
// and the stable FNV-1a/64 content hashing behind the design cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "common/bitvector.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace mcfpga {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ConstructsWithFillValue) {
  BitVector zeros(10, false);
  BitVector ones(10, true);
  EXPECT_TRUE(zeros.all_equal(false));
  EXPECT_TRUE(ones.all_equal(true));
  EXPECT_EQ(ones.popcount(), 10u);
}

TEST(BitVector, SetGetFlip) {
  BitVector v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, IndexOutOfRangeThrows) {
  BitVector v(8);
  EXPECT_THROW(v.get(8), InvalidArgument);
  EXPECT_THROW(v.set(100, true), InvalidArgument);
}

TEST(BitVector, StringRoundTrip) {
  const std::string s = "1011001";
  BitVector v = BitVector::from_string(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.to_string(), s);
  // MSB-first: leading '1' is the highest index.
  EXPECT_TRUE(v.get(6));
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
}

TEST(BitVector, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVector::from_string("10x1"), InvalidArgument);
}

TEST(BitVector, WordRoundTrip) {
  BitVector v = BitVector::from_word(0b1011, 4);
  EXPECT_EQ(v.to_word(), 0b1011u);
  EXPECT_EQ(v.to_string(), "1011");
  // Upper bits beyond size are masked off.
  BitVector w = BitVector::from_word(~0ull, 3);
  EXPECT_EQ(w.to_word(), 7u);
}

TEST(BitVector, HammingDistance) {
  BitVector a = BitVector::from_string("1100");
  BitVector b = BitVector::from_string("1010");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
  BitVector c(5);
  EXPECT_THROW(a.hamming_distance(c), InvalidArgument);
}

TEST(BitVector, BitwiseOps) {
  BitVector a = BitVector::from_string("1100");
  BitVector b = BitVector::from_string("1010");
  BitVector x = a;
  x ^= b;
  EXPECT_EQ(x.to_string(), "0110");
  BitVector y = a;
  y &= b;
  EXPECT_EQ(y.to_string(), "1000");
  BitVector z = a;
  z |= b;
  EXPECT_EQ(z.to_string(), "1110");
}

TEST(BitVector, PushBackGrowsAcrossWords) {
  BitVector v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i % 3 == 0);
  }
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.popcount(), 34u);
  EXPECT_TRUE(v.get(99));
}

TEST(BitVector, InlineAndHeapStorageAgreeAcrossTheWordBoundary) {
  // Up to 64 bits live inline; pushing the 65th moves them to the heap.
  // Values, words, equality and hashes must not notice either form.
  BitVector grown;
  for (std::size_t i = 0; i < 65; ++i) {
    grown.push_back(i % 5 == 0);
    BitVector built(i + 1);
    for (std::size_t j = 0; j <= i; ++j) {
      built.set(j, j % 5 == 0);
    }
    ASSERT_EQ(grown, built) << "size " << i + 1;
    EXPECT_EQ(grown.hash(), built.hash());
    EXPECT_EQ(grown.words().size(), (i + 64) / 64);
  }
  EXPECT_EQ(grown.popcount(), 13u);
  const BitVector copy = grown;
  EXPECT_EQ(copy, grown);
  EXPECT_EQ(BitVector(64, true).words()[0], ~std::uint64_t{0});
  EXPECT_EQ(BitVector(0, true).popcount(), 0u);
}

TEST(BitVector, HashDistinguishesValues) {
  BitVector a = BitVector::from_string("1100");
  BitVector b = BitVector::from_string("1010");
  BitVector c = BitVector::from_string("1100");
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_NE(a.hash(), b.hash());
  // Size participates in the hash.
  EXPECT_NE(BitVector(4).hash(), BitVector(5).hash());
}

TEST(BitVector, FillResetsTail) {
  BitVector v(70);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 70u);
  v.fill(false);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityRoughlyHolds) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.next_bool(0.2) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.2, 0.03);
  EXPECT_FALSE(Rng(1).next_bool(0.0));
  EXPECT_TRUE(Rng(1).next_bool(1.0));
}

TEST(Strings, FormatHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.4512, 1), "45.1%");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(0), "0");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "count"});
  t.add_row({"alpha", "12"});
  t.add_separator();
  t.add_row({"b", "3,456"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3,456"), std::string::npos);
  EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

// --- content hashing (common/hash.hpp) --------------------------------------
// Fixed known-answer vectors: these digests are the published FNV-1a/64
// values, so any drift (endianness, prime, basis, byte order) fails here
// before it silently invalidates every cache key.

TEST(Hash, Fnv1aKnownAnswerVectors) {
  EXPECT_EQ(common::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(common::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(common::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, Fnv1aIsConstexpr) {
  static_assert(common::fnv1a("") == common::kFnvOffsetBasis);
  static_assert(common::fnv1a("a") == 0xaf63dc4c8601ec8cull);
}

TEST(Hash, CombineMatchesByteStream) {
  // hash_combine must equal absorbing the value's 8 little-endian bytes.
  const std::uint64_t value = 0x0123456789abcdefull;
  std::uint64_t expected = common::kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    expected = common::fnv1a_byte(
        expected, static_cast<std::uint8_t>(value >> (8 * i)));
  }
  EXPECT_EQ(common::hash_combine(common::kFnvOffsetBasis, value), expected);
}

TEST(Hash, CombineIsOrderSensitive) {
  const std::uint64_t ab =
      common::hash_combine(common::hash_combine(common::kFnvOffsetBasis, 1), 2);
  const std::uint64_t ba =
      common::hash_combine(common::hash_combine(common::kFnvOffsetBasis, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(Hasher, ChainedFeedersAreDeterministic) {
  const auto digest = [] {
    return common::Hasher()
        .u64(42)
        .size(7)
        .i64(-3)
        .boolean(true)
        .f64(2.5)
        .str("net")
        .bits(BitVector::from_string("0110"))
        .digest();
  };
  EXPECT_EQ(digest(), digest());
}

TEST(Hasher, LengthPrefixPreventsAliasing) {
  // "ab" + "c" must not collide with "a" + "bc".
  const std::uint64_t h1 =
      common::Hasher().str("ab").str("c").digest();
  const std::uint64_t h2 =
      common::Hasher().str("a").str("bc").digest();
  EXPECT_NE(h1, h2);
}

TEST(Hasher, DistinguishesValueTypes) {
  EXPECT_NE(common::Hasher().boolean(true).digest(),
            common::Hasher().u64(1).digest());
  EXPECT_NE(common::Hasher().f64(-0.0).digest(),
            common::Hasher().f64(0.0).digest());
  EXPECT_NE(common::Hasher().bits(BitVector::from_string("00")).digest(),
            common::Hasher().bits(BitVector::from_string("000")).digest());
}

// --- Strict numeric parsing (the checked helpers every line-oriented
// parser in config/serialize and serve/protocol routes numbers through).

TEST(Strings, TryParseU64AcceptsExactTokens) {
  std::uint64_t v = 1;
  EXPECT_TRUE(try_parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(try_parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(try_parse_u64("18446744073709551615", v));  // u64 max
  EXPECT_EQ(v, 18446744073709551615ull);
}

TEST(Strings, TryParseU64RejectsNonExactTokens) {
  std::uint64_t v = 0;
  EXPECT_FALSE(try_parse_u64("", v));
  EXPECT_FALSE(try_parse_u64("12abc", v));    // trailing garbage
  EXPECT_FALSE(try_parse_u64("+4", v));       // explicit sign
  EXPECT_FALSE(try_parse_u64("-1", v));       // negative
  EXPECT_FALSE(try_parse_u64(" 7", v));       // leading whitespace
  EXPECT_FALSE(try_parse_u64("7 ", v));       // trailing whitespace
  EXPECT_FALSE(try_parse_u64("0x10", v));     // no hex
  EXPECT_FALSE(try_parse_u64("1e3", v));      // no exponent form
  EXPECT_FALSE(try_parse_u64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(try_parse_u64("99999999999999999999", v));  // way over
}

TEST(Strings, TryParseI64Bounds) {
  std::int64_t v = 0;
  EXPECT_TRUE(try_parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(try_parse_i64("9223372036854775807", v));
  EXPECT_TRUE(try_parse_i64("-9223372036854775808", v));
  EXPECT_FALSE(try_parse_i64("9223372036854775808", v));   // overflow
  EXPECT_FALSE(try_parse_i64("-9223372036854775809", v));  // underflow
  EXPECT_FALSE(try_parse_i64("+1", v));
  EXPECT_FALSE(try_parse_i64("1.5", v));
}

TEST(Strings, TryParseDoubleStrictness) {
  double v = 0.0;
  EXPECT_TRUE(try_parse_double("0.5", v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(try_parse_double("-12.625", v));
  EXPECT_EQ(v, -12.625);
  EXPECT_TRUE(try_parse_double("1e3", v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_FALSE(try_parse_double("", v));
  EXPECT_FALSE(try_parse_double("1.5x", v));
  EXPECT_FALSE(try_parse_double("+1.5", v));
  EXPECT_FALSE(try_parse_double(" 1.5", v));
  EXPECT_FALSE(try_parse_double("nan", v));  // non-finite rejected
  EXPECT_FALSE(try_parse_double("inf", v));
  EXPECT_FALSE(try_parse_double("1e999", v));  // overflows to infinity
}

// --- WorkerPool (the serve daemon's execution substrate).

TEST(WorkerPool, RunsEverySubmittedTaskExactlyOnce) {
  std::atomic<int> runs{0};
  {
    WorkerPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&runs] { runs.fetch_add(1); });
    }
    pool.shutdown();  // drains before joining
    EXPECT_EQ(runs.load(), 64);
    pool.shutdown();  // idempotent
  }
  EXPECT_EQ(runs.load(), 64);
}

TEST(WorkerPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> runs{0};
  WorkerPool pool(1);
  for (int i = 0; i < 16; ++i) {
    pool.submit([&runs] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      runs.fetch_add(1);
    });
  }
  pool.shutdown();
  EXPECT_EQ(runs.load(), 16);
  EXPECT_THROW(pool.submit([] {}), InvalidArgument);
}

TEST(WorkerPool, TasksSubmittedFromTasksStillRun) {
  // A task may enqueue follow-up work (the daemon never does, but the
  // pool's contract should not silently forbid it).
  std::atomic<int> runs{0};
  WorkerPool pool(2);
  std::promise<void> inner_done;
  pool.submit([&] {
    pool.submit([&] {
      runs.fetch_add(1);
      inner_done.set_value();
    });
  });
  inner_done.get_future().wait();
  EXPECT_EQ(runs.load(), 1);
  pool.shutdown();
}

}  // namespace
}  // namespace mcfpga
