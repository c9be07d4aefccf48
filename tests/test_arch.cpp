// Unit tests for the fabric architecture: conventional switches (Fig. 2),
// switch blocks, diamond switches (Fig. 11), and the routing graph
// (Figs. 6, 10).
#include <gtest/gtest.h>

#include <set>

#include "arch/conventional_switch.hpp"
#include "arch/diamond_switch.hpp"
#include "arch/fabric_spec.hpp"
#include "arch/routing_graph.hpp"
#include "arch/switch_block.hpp"
#include "common/error.hpp"

namespace mcfpga::arch {
namespace {

using config::ContextPattern;

TEST(ConventionalSwitch, StoresOneBitPerContext) {
  ConventionalMultiContextSwitch sw(4);
  EXPECT_EQ(sw.memory_bits(), 4u);
  EXPECT_EQ(sw.mux_stages(), 3u);
  sw.program(ContextPattern::from_string("0110"));
  EXPECT_FALSE(sw.is_on(0));
  EXPECT_TRUE(sw.is_on(1));
  EXPECT_TRUE(sw.is_on(2));
  EXPECT_FALSE(sw.is_on(3));
}

TEST(ConventionalSwitch, Validation) {
  ConventionalMultiContextSwitch sw(4);
  EXPECT_THROW(sw.program(ContextPattern(8)), InvalidArgument);
  EXPECT_THROW(sw.is_on(4), InvalidArgument);
}

TEST(FabricSpec, ValidateChecksInvariants) {
  FabricSpec spec;
  EXPECT_NO_THROW(spec.validate());
  FabricSpec bad = spec;
  bad.num_contexts = 3;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = spec;
  bad.double_length_tracks = 3;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = spec;
  bad.logic_block.num_contexts = 8;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = spec;
  bad.channel_width = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  // The MCMG-LUT's bounds, checked before any table is sized by them.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{9}, std::size_t{62},
        (std::size_t{1} << 58) + 1}) {
    bad = spec;
    bad.logic_block.base_inputs = n;
    EXPECT_THROW(bad.validate(), InvalidArgument) << n;
    bad = spec;
    bad.logic_block.num_outputs = n;
    EXPECT_THROW(bad.validate(), InvalidArgument) << n;
  }
}

TEST(FabricSpec, DescribeMentionsKeyParameters) {
  FabricSpec spec;
  const std::string s = spec.describe();
  EXPECT_NE(s.find("4x4"), std::string::npos);
  EXPECT_NE(s.find("4 contexts"), std::string::npos);
  EXPECT_NE(s.find("rcm"), std::string::npos);
}

TEST(SwitchBlock, ConventionalAndRcmAgree) {
  SwitchBlock conv("sb", 5, 4, SwitchImpl::kConventional);
  SwitchBlock rcm("sb", 5, 4, SwitchImpl::kRcm);
  const char* patterns[] = {"0000", "0101", "1000", "1111", "0110"};
  for (std::size_t i = 0; i < 5; ++i) {
    conv.program(i, ContextPattern::from_string(patterns[i]));
    rcm.program(i, ContextPattern::from_string(patterns[i]));
  }
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(conv.is_on(i, c), rcm.is_on(i, c)) << i << "," << c;
    }
  }
  EXPECT_TRUE(rcm.verify_rcm_equivalence());
}

TEST(SwitchBlock, ReprogramInvalidatesDecoder) {
  SwitchBlock sb("sb", 1, 4, SwitchImpl::kRcm);
  sb.program(0, ContextPattern::from_string("1111"));
  EXPECT_TRUE(sb.is_on(0, 0));
  sb.program(0, ContextPattern::from_string("0000"));
  EXPECT_FALSE(sb.is_on(0, 0));
}

TEST(SwitchBlock, DecoderAccessRequiresRcm) {
  SwitchBlock conv("sb", 1, 4, SwitchImpl::kConventional);
  EXPECT_THROW(conv.decoder(), InvalidArgument);
}

TEST(SwitchBlock, BitstreamExport) {
  SwitchBlock sb("blk", 3, 4, SwitchImpl::kRcm);
  sb.program(1, ContextPattern::from_string("0101"));
  const auto bs = sb.to_bitstream();
  ASSERT_EQ(bs.num_rows(), 3u);
  EXPECT_EQ(bs.row(1).name, "blk.p1");
  EXPECT_EQ(bs.row(1).pattern.to_string(), "0101");
}

TEST(DiamondSwitch, PairIndexing) {
  EXPECT_EQ(DiamondSwitch::pair_index(Direction::kNorth, Direction::kEast),
            DiamondSwitch::pair_index(Direction::kEast, Direction::kNorth));
  // All six pairs are distinct.
  std::set<std::size_t> seen;
  const Direction dirs[] = {Direction::kNorth, Direction::kEast,
                            Direction::kSouth, Direction::kWest};
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      seen.insert(DiamondSwitch::pair_index(dirs[a], dirs[b]));
    }
  }
  EXPECT_EQ(seen.size(), DiamondSwitch::kNumPairs);
  EXPECT_THROW(DiamondSwitch::pair_index(Direction::kNorth, Direction::kNorth),
               InvalidArgument);
}

TEST(DiamondSwitch, ProgramAndQuery) {
  DiamondSwitch dia("d", 4);
  dia.program(Direction::kNorth, Direction::kSouth,
              ContextPattern::from_string("0011"));
  EXPECT_TRUE(dia.is_connected(Direction::kSouth, Direction::kNorth, 0));
  EXPECT_FALSE(dia.is_connected(Direction::kSouth, Direction::kNorth, 2));
  EXPECT_FALSE(dia.is_connected(Direction::kNorth, Direction::kEast, 0));
  const auto bs = dia.to_bitstream();
  EXPECT_EQ(bs.num_rows(), DiamondSwitch::kNumPairs);
}

// --- Routing graph ----------------------------------------------------------

FabricSpec small_spec() {
  FabricSpec spec;
  spec.width = 3;
  spec.height = 3;
  spec.channel_width = 2;
  spec.double_length_tracks = 2;
  return spec;
}

TEST(RoutingGraph, NodeAndSwitchPopulation) {
  const RoutingGraph g(small_spec());
  EXPECT_GT(g.num_nodes(), 0u);
  EXPECT_GT(g.num_switches(), 0u);
  EXPECT_EQ(g.num_edges(), 2 * g.num_switches());
  EXPECT_GT(g.count_switches(SwitchOwner::kSwitchBlock), 0u);
  EXPECT_GT(g.count_switches(SwitchOwner::kConnectionBlock), 0u);
  EXPECT_GT(g.count_switches(SwitchOwner::kDiamond), 0u);
}

TEST(RoutingGraph, NoDoubleLengthMeansNoDiamonds) {
  FabricSpec spec = small_spec();
  spec.double_length_tracks = 0;
  const RoutingGraph g(spec);
  EXPECT_EQ(g.count_switches(SwitchOwner::kDiamond), 0u);
}

TEST(RoutingGraph, PinLookups) {
  const RoutingGraph g(small_spec());
  const NodeId out = g.out_pin(1, 2, 0);
  EXPECT_EQ(g.node(out).kind, NodeKind::kOutPin);
  EXPECT_EQ(g.node(out).x, 1);
  EXPECT_EQ(g.node(out).y, 2);
  const NodeId in = g.in_pin(0, 0, 3);
  EXPECT_EQ(g.node(in).kind, NodeKind::kInPin);
  EXPECT_THROW(g.out_pin(9, 0, 0), InvalidArgument);
  EXPECT_THROW(g.in_pin(0, 0, 99), InvalidArgument);
}

TEST(RoutingGraph, PadsOnPerimeterOnly) {
  const RoutingGraph g(small_spec());
  EXPECT_GT(g.num_pads(), 0u);
  for (std::size_t p = 0; p < g.num_pads(); ++p) {
    const auto& n = g.node(g.pad(p));
    EXPECT_EQ(n.kind, NodeKind::kPad);
    const bool perimeter = n.x == 0 || n.y == 0 || n.x == 2 || n.y == 2;
    EXPECT_TRUE(perimeter) << n.name;
  }
}

TEST(RoutingGraph, EveryEdgeHasAValidSwitch) {
  const RoutingGraph g(small_spec());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(static_cast<EdgeId>(e));
    EXPECT_GE(edge.sw, 0);
    EXPECT_LT(static_cast<std::size_t>(edge.sw), g.num_switches());
    const auto& sw = g.rr_switch(edge.sw);
    const bool forward = sw.forward == static_cast<EdgeId>(e);
    const bool backward = sw.backward == static_cast<EdgeId>(e);
    EXPECT_TRUE(forward || backward);
  }
}

TEST(RoutingGraph, FanoutConsistency) {
  const RoutingGraph g(small_spec());
  std::size_t total = 0;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    for (const EdgeId e : g.fanout(static_cast<NodeId>(n))) {
      EXPECT_EQ(g.edge(e).from, static_cast<NodeId>(n));
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(RoutingGraph, DoubleLengthWiresSpanTwoCells) {
  const RoutingGraph g(small_spec());
  bool found = false;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto& node = g.node(static_cast<NodeId>(n));
    if (node.kind == NodeKind::kWire && node.length == 2) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RoutingGraph, BlockSwitchCountsSumToTotals) {
  const RoutingGraph g(small_spec());
  for (const auto owner : {SwitchOwner::kSwitchBlock,
                           SwitchOwner::kConnectionBlock,
                           SwitchOwner::kDiamond}) {
    std::size_t sum = 0;
    for (std::size_t y = 0; y < 3; ++y) {
      for (std::size_t x = 0; x < 3; ++x) {
        sum += g.switches_in_block(x, y, owner);
      }
    }
    EXPECT_EQ(sum, g.count_switches(owner)) << to_string(owner);
  }
}

TEST(RoutingGraph, SingleCellFabric) {
  FabricSpec spec;
  spec.width = 1;
  spec.height = 1;
  spec.channel_width = 1;
  spec.double_length_tracks = 0;
  const RoutingGraph g(spec);
  // No wires, no switch-block switches; pads exist but have nothing to
  // connect through (degenerate but must not crash).
  EXPECT_EQ(g.count_switches(SwitchOwner::kSwitchBlock), 0u);
}

}  // namespace
}  // namespace mcfpga::arch
