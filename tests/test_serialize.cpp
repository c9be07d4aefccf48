// Unit tests for bitstream and netlist text serialization: round trips,
// format stability, and malformed-input rejection with line numbers.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "config/stats.hpp"
#include "workload/bitstream_gen.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

namespace mcfpga::config {
namespace {

TEST(Serialize, RoundTripsPaperExample) {
  const Bitstream original = paper_table1_example();
  const Bitstream parsed = from_text(to_text(original));
  ASSERT_EQ(parsed.num_rows(), original.num_rows());
  EXPECT_EQ(parsed.num_contexts(), original.num_contexts());
  for (std::size_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(parsed.row(r).name, original.row(r).name);
    EXPECT_EQ(parsed.row(r).kind, original.row(r).kind);
    EXPECT_EQ(parsed.row(r).pattern, original.row(r).pattern);
  }
}

TEST(Serialize, RoundTripsLargeGeneratedStream) {
  workload::BitstreamGenParams params;
  params.rows = 2000;
  params.num_contexts = 8;
  params.change_rate = 0.07;
  params.seed = 17;
  const Bitstream original = workload::generate_bitstream(params);
  const Bitstream parsed = from_text(to_text(original));
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(parsed.plane(c), original.plane(c));
  }
}

TEST(Serialize, RoundTripsSixtyFourContexts) {
  // 64 contexts fill the pattern word: every bit of it must survive.
  Bitstream original(64);
  Rng rng(64);
  for (std::size_t r = 0; r < 64; ++r) {
    original.add_row("r" + std::to_string(r), ResourceKind::kLutBit,
                     ContextPattern::from_word(64, rng.next_u64()));
  }
  original.add_row("ones", ResourceKind::kControlBit,
                   ContextPattern(64, true));
  const std::string text = to_text(original);
  const Bitstream parsed = from_text(text);
  ASSERT_EQ(parsed.num_rows(), original.num_rows());
  EXPECT_EQ(parsed.num_contexts(), 64u);
  for (std::size_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(parsed.row(r).pattern, original.row(r).pattern) << r;
  }
  EXPECT_EQ(to_text(parsed), text);
}

TEST(Serialize, FormatIsStable) {
  Bitstream bs(4);
  bs.add_row("sw0", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0101"));
  const std::string text = to_text(bs);
  EXPECT_EQ(text,
            "mcfpga-bitstream v1\n"
            "contexts 4\n"
            "rows 1\n"
            "sw0 routing-switch 0101\n");
}

TEST(Serialize, EmptyBitstream) {
  const Bitstream parsed = from_text(to_text(Bitstream(4)));
  EXPECT_EQ(parsed.num_rows(), 0u);
  EXPECT_EQ(parsed.num_contexts(), 4u);
}

TEST(Serialize, AllResourceKindsSurvive) {
  Bitstream bs(2);
  bs.add_row("a", ResourceKind::kRoutingSwitch, ContextPattern(2, false));
  bs.add_row("b", ResourceKind::kLutBit, ContextPattern(2, true));
  bs.add_row("c", ResourceKind::kControlBit, ContextPattern(2, false));
  const Bitstream parsed = from_text(to_text(bs));
  EXPECT_EQ(parsed.row(0).kind, ResourceKind::kRoutingSwitch);
  EXPECT_EQ(parsed.row(1).kind, ResourceKind::kLutBit);
  EXPECT_EQ(parsed.row(2).kind, ResourceKind::kControlBit);
}

TEST(Serialize, RejectsBadHeader) {
  EXPECT_THROW(from_text("garbage\n"), InvalidArgument);
  EXPECT_THROW(from_text(""), InvalidArgument);
}

TEST(Serialize, RejectsBadContextCount) {
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts 3\nrows 0\n"),
               InvalidArgument);
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts x\nrows 0\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsTruncatedRows) {
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts 4\nrows 2\n"
                         "a routing-switch 0101\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsWrongPatternWidth) {
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts 4\nrows 1\n"
                         "a routing-switch 01\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsUnknownKind) {
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts 4\nrows 1\n"
                         "a mystery-bit 0101\n"),
               InvalidArgument);
}

TEST(Serialize, RejectsNonBinaryPattern) {
  EXPECT_THROW(from_text("mcfpga-bitstream v1\ncontexts 4\nrows 1\n"
                         "a lut-bit 01x1\n"),
               InvalidArgument);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  try {
    from_text("mcfpga-bitstream v1\ncontexts 4\nrows 1\na lut-bit 01\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

// --- netlist round trip -----------------------------------------------------

void expect_same_netlist(const netlist::MultiContextNetlist& a,
                         const netlist::MultiContextNetlist& b) {
  ASSERT_EQ(a.num_contexts(), b.num_contexts());
  for (std::size_t c = 0; c < a.num_contexts(); ++c) {
    const netlist::Dfg& da = a.context(c);
    const netlist::Dfg& db = b.context(c);
    ASSERT_EQ(da.num_nodes(), db.num_nodes()) << "context " << c;
    for (std::size_t i = 0; i < da.num_nodes(); ++i) {
      const auto& na = da.node(static_cast<netlist::NodeRef>(i));
      const auto& nb = db.node(static_cast<netlist::NodeRef>(i));
      EXPECT_EQ(na.type, nb.type);
      EXPECT_EQ(na.name, nb.name);
      EXPECT_EQ(na.fanins, nb.fanins);
      EXPECT_EQ(na.truth_table, nb.truth_table);
    }
    ASSERT_EQ(da.outputs().size(), db.outputs().size());
    for (std::size_t i = 0; i < da.outputs().size(); ++i) {
      EXPECT_EQ(da.outputs()[i].node, db.outputs()[i].node);
      EXPECT_EQ(da.outputs()[i].name, db.outputs()[i].name);
    }
  }
}

TEST(NetlistSerialize, RoundTripsHandWrittenExample) {
  netlist::MultiContextNetlist nl(2);
  const auto a = nl.context(0).add_input("a");
  const auto b = nl.context(0).add_input("b");
  const auto x = nl.context(0).add_lut("xor", {a, b},
                                       BitVector::from_string("0110"));
  nl.context(0).mark_output(x, "y");
  const auto p = nl.context(1).add_input("a");
  const auto q = nl.context(1).add_lut("inv", {p},
                                       BitVector::from_string("01"));
  nl.context(1).mark_output(q, "y");

  expect_same_netlist(nl, netlist_from_text(netlist_to_text(nl)));
}

TEST(NetlistSerialize, FormatIsCanonical) {
  netlist::MultiContextNetlist nl(1);
  const auto a = nl.context(0).add_input("a");
  const auto b = nl.context(0).add_input("b");
  const auto x = nl.context(0).add_lut("and", {a, b},
                                       BitVector::from_string("1000"));
  nl.context(0).mark_output(x, "y");
  EXPECT_EQ(netlist_to_text(nl),
            "mcfpga-netlist v1\n"
            "contexts 1\n"
            "context 0\n"
            "nodes 3\n"
            "in a\n"
            "in b\n"
            "lut and 2 0 1 1000\n"
            "outputs 1\n"
            "out 2 y\n");
}

TEST(NetlistSerialize, RoundTripsStructuredAndRandomWorkloads) {
  expect_same_netlist(
      workload::pipeline_workload(4, 8),
      netlist_from_text(netlist_to_text(workload::pipeline_workload(4, 8))));

  workload::RandomMultiContextParams params;
  params.base.seed = 77;
  params.num_contexts = 3;
  const auto random = workload::random_multi_context(params);
  expect_same_netlist(random, netlist_from_text(netlist_to_text(random)));
  // Canonical: identical netlists produce identical text.
  EXPECT_EQ(netlist_to_text(random), netlist_to_text(random));
}

TEST(NetlistSerialize, RejectsMalformedInput) {
  EXPECT_THROW(netlist_from_text("mcfpga-bitstream v1\n"), InvalidArgument);
  // Fanin referencing itself / a later node.
  EXPECT_THROW(
      netlist_from_text("mcfpga-netlist v1\ncontexts 1\ncontext 0\n"
                        "nodes 1\nlut f 1 0 01\noutputs 0\n"),
      InvalidArgument);
  // Truth table width != 2^arity.
  EXPECT_THROW(
      netlist_from_text("mcfpga-netlist v1\ncontexts 1\ncontext 0\n"
                        "nodes 2\nin a\nlut f 1 0 0110\noutputs 0\n"),
      InvalidArgument);
  // Output out of range.
  EXPECT_THROW(
      netlist_from_text("mcfpga-netlist v1\ncontexts 1\ncontext 0\n"
                        "nodes 1\nin a\noutputs 1\nout 5 y\n"),
      InvalidArgument);
}

TEST(NetlistSerialize, WriteRejectsUnserializableNames) {
  netlist::MultiContextNetlist nl(1);
  nl.context(0).add_input("has space");
  EXPECT_THROW(netlist_to_text(nl), InvalidArgument);
}

TEST(NetlistSerialize, ErrorsCarryLineNumbers) {
  try {
    netlist_from_text("mcfpga-netlist v1\ncontexts 1\ncontext 0\n"
                      "nodes 1\nbogus x\noutputs 0\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

// --- Strict numeric parsing: every count/index goes through the checked
// helpers (common/strings.hpp), so trailing garbage, signs, overflow,
// and trailing tokens are all line-numbered errors instead of whatever
// `istream >> size_t` happened to produce.

/// Expects `text` to be rejected with the given line number in the error.
void expect_rejected_at(const std::string& text, const std::string& line_tag,
                        bool bitstream = false) {
  try {
    if (bitstream) {
      from_text(text);
    } else {
      netlist_from_text(text);
    }
    FAIL() << "accepted: " << text;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
        << e.what() << "\nfor input: " << text;
  }
}

TEST(NetlistSerialize, RejectsMalformedNumericFixtures) {
  // Trailing garbage on a count.
  expect_rejected_at("mcfpga-netlist v1\ncontexts 12abc\n", "line 2");
  // Explicit '+' (istream would silently accept it).
  expect_rejected_at("mcfpga-netlist v1\ncontexts +1\n", "line 2");
  // Negative where unsigned is required (istream wraps it around).
  expect_rejected_at("mcfpga-netlist v1\ncontexts -1\n", "line 2");
  // Overflow past u64 (istream clamps; strict parsing rejects).
  expect_rejected_at(
      "mcfpga-netlist v1\ncontexts 99999999999999999999\n", "line 2");
  // A context count the lines do not back up is rejected on its own line,
  // never allocated up front.
  expect_rejected_at("mcfpga-netlist v1\ncontexts 18446744073709551615\n",
                     "line 2");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1000000000000\n",
                     "line 2");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 2\ncontext 0\nnodes 1\n"
                     "in a\noutputs 0\n",
                     "line 2");
  // Node count and LUT arity/fanin lines.
  expect_rejected_at(
      "mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 2x\n", "line 4");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 2\n"
                     "in a\nlut f 1e0 0 01\noutputs 0\n",
                     "line 6");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 2\n"
                     "in a\nlut f 1 0x0 01\noutputs 0\n",
                     "line 6");
  // Output node index with trailing garbage.
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 1\n"
                     "in a\noutputs 1\nout 0junk y\n",
                     "line 7");
  // Trailing tokens after an otherwise valid line.
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1 extra\n", "line 2");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0 extra\n",
                     "line 3");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 1\n"
                     "in a trailing\noutputs 0\n",
                     "line 5");
  expect_rejected_at("mcfpga-netlist v1\ncontexts 1\ncontext 0\nnodes 1\n"
                     "in a\noutputs 1\nout 0 y extra\n",
                     "line 7");
}

TEST(Serialize, RejectsMalformedNumericFixtures) {
  expect_rejected_at("mcfpga-bitstream v1\ncontexts 4abc\nrows 0\n",
                     "line 2", /*bitstream=*/true);
  expect_rejected_at("mcfpga-bitstream v1\ncontexts +4\nrows 0\n",
                     "line 2", /*bitstream=*/true);
  expect_rejected_at("mcfpga-bitstream v1\ncontexts 4\nrows -1\n",
                     "line 3", /*bitstream=*/true);
  expect_rejected_at(
      "mcfpga-bitstream v1\ncontexts 4\nrows 99999999999999999999\n",
      "line 3", /*bitstream=*/true);
  expect_rejected_at("mcfpga-bitstream v1\ncontexts 2\nrows 1\n"
                     "sb(0,0).p0 routing-switch 01 junk\n",
                     "line 4", /*bitstream=*/true);
  expect_rejected_at("mcfpga-bitstream v1\ncontexts 2 extra\nrows 0\n",
                     "line 2", /*bitstream=*/true);
}

}  // namespace
}  // namespace mcfpga::config
