// Unit tests for configuration-fault injection and the plane-diff
// detection oracle.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/stats.hpp"
#include "sim/fault.hpp"
#include "workload/bitstream_gen.hpp"

namespace mcfpga::sim {
namespace {

using config::Bitstream;
using config::ContextPattern;
using config::ResourceKind;

Bitstream small_stream() {
  Bitstream bs(4);
  bs.add_row("a", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0101"));
  bs.add_row("b", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0000"));
  bs.add_row("c", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("1111"));
  return bs;
}

TEST(FaultInjection, BitFlipChangesExactlyOneBit) {
  const Bitstream golden = small_stream();
  const Bitstream faulty =
      inject_fault(golden, Fault{FaultKind::kBitFlip, 0, 2});
  EXPECT_NE(faulty.row(0).pattern, golden.row(0).pattern);
  EXPECT_EQ(faulty.row(0).pattern.value_in(2),
            !golden.row(0).pattern.value_in(2));
  EXPECT_EQ(faulty.row(1).pattern, golden.row(1).pattern);
  EXPECT_EQ(faulty.row(2).pattern, golden.row(2).pattern);
}

TEST(FaultInjection, StuckAtForcesWholeRow) {
  const Bitstream golden = small_stream();
  const Bitstream s0 =
      inject_fault(golden, Fault{FaultKind::kStuckAt0, 2, 0});
  EXPECT_EQ(s0.row(2).pattern.word(), 0u);
  const Bitstream s1 =
      inject_fault(golden, Fault{FaultKind::kStuckAt1, 1, 0});
  EXPECT_EQ(s1.row(1).pattern.word(), 0xFu);
}

TEST(FaultInjection, RangeChecks) {
  const Bitstream golden = small_stream();
  EXPECT_THROW(inject_fault(golden, Fault{FaultKind::kBitFlip, 9, 0}),
               InvalidArgument);
  EXPECT_THROW(inject_fault(golden, Fault{FaultKind::kBitFlip, 0, 9}),
               InvalidArgument);
}

TEST(FaultDetection, DiffPinpointsTheFault) {
  const Bitstream golden = small_stream();
  const Bitstream faulty =
      inject_fault(golden, Fault{FaultKind::kBitFlip, 0, 3});
  const rcm::ContextDecoder decoder(faulty);
  const auto diffs = diff_planes(golden, decoder);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], (std::pair<std::size_t, std::size_t>{0, 3}));
}

TEST(FaultDetection, CleanStreamHasNoDiffs) {
  const Bitstream golden = small_stream();
  const rcm::ContextDecoder decoder(golden);
  EXPECT_TRUE(diff_planes(golden, decoder).empty());
}

TEST(FaultDetection, MaskedStuckAtIsNotDetected) {
  // Row "b" is already all-0: stuck-at-0 changes nothing.
  const Bitstream golden = small_stream();
  const Bitstream faulty =
      inject_fault(golden, Fault{FaultKind::kStuckAt0, 1, 0});
  const rcm::ContextDecoder decoder(faulty);
  EXPECT_TRUE(diff_planes(golden, decoder).empty());
}

TEST(FaultCampaign, AllUnmaskedFaultsAreDetected) {
  workload::BitstreamGenParams params;
  params.rows = 300;
  params.change_rate = 0.05;
  params.seed = 23;
  const Bitstream golden = workload::generate_bitstream(params);
  const auto result = run_fault_campaign(golden, 100, 99);
  EXPECT_EQ(result.injected, 100u);
  EXPECT_EQ(result.detected + result.masked, 100u);
  // Bit flips are never masked; stuck-ats mask only when they match the
  // original row, which on a 12%-on stream leaves plenty detected.
  EXPECT_GT(result.detection_rate(), 0.4);
}

TEST(FaultCampaign, BitFlipsAreNeverMasked) {
  // A bit flip always changes a stored value, so the plane-diff oracle must
  // catch every one of them (only stuck-ats can be masked).
  workload::BitstreamGenParams params;
  params.rows = 200;
  params.change_rate = 0.05;
  params.seed = 5;
  const Bitstream golden = workload::generate_bitstream(params);
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    Fault fault;
    fault.kind = FaultKind::kBitFlip;
    fault.row = static_cast<std::size_t>(rng.next_below(golden.num_rows()));
    fault.context = static_cast<std::size_t>(rng.next_below(4));
    const rcm::ContextDecoder decoder(inject_fault(golden, fault));
    const auto diffs = diff_planes(golden, decoder);
    ASSERT_EQ(diffs.size(), 1u) << "row " << fault.row;
    EXPECT_EQ(diffs[0].first, fault.row);
    EXPECT_EQ(diffs[0].second, fault.context);
  }
}

TEST(FaultCampaign, EmptyStreamRejected) {
  EXPECT_THROW(run_fault_campaign(Bitstream(4), 10, 1), InvalidArgument);
}

}  // namespace
}  // namespace mcfpga::sim
