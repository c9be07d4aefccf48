// Unit tests for the mapping layer: tech mapping, context merging and the
// Fig. 13 vs Fig. 14 plane-allocation comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mapping/context_merge.hpp"
#include "mapping/plane_alloc.hpp"
#include "mapping/tech_map.hpp"
#include "netlist/eval.hpp"

namespace mcfpga::mapping {
namespace {

using netlist::Dfg;
using netlist::MultiContextNetlist;
using netlist::NodeRef;
using netlist::ValueMap;

BitVector random_tt(Rng& rng, std::size_t arity) {
  BitVector tt(std::size_t{1} << arity);
  for (std::size_t a = 0; a < tt.size(); ++a) {
    tt.set(a, rng.next_bool());
  }
  return tt;
}

TEST(TechMap, SmallNodesPassThrough) {
  Dfg dfg;
  const NodeRef a = dfg.add_input("a");
  const NodeRef b = dfg.add_input("b");
  dfg.mark_output(dfg.add_lut("x", {a, b}, BitVector::from_string("0110")),
                  "o");
  const Dfg out = decompose_to_arity(dfg, 4);
  EXPECT_EQ(out.num_lut_ops(), 1u);
  EXPECT_EQ(out.max_arity(), 2u);
}

TEST(TechMap, DecomposesOversizedNodesFunctionally) {
  Rng rng(3);
  Dfg dfg;
  std::vector<NodeRef> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(dfg.add_input("x" + std::to_string(i)));
  }
  const BitVector tt = random_tt(rng, 6);
  dfg.mark_output(dfg.add_lut("big", inputs, tt), "o");

  const Dfg out = decompose_to_arity(dfg, 4);
  EXPECT_LE(out.max_arity(), 4u);
  EXPECT_GT(out.num_lut_ops(), 1u);

  // Exhaustive functional equivalence over all 64 input vectors.
  for (std::size_t v = 0; v < 64; ++v) {
    ValueMap in;
    for (int i = 0; i < 6; ++i) {
      in["x" + std::to_string(i)] = (v >> i) & 1;
    }
    EXPECT_EQ(netlist::evaluate(dfg, in).at("o"),
              netlist::evaluate(out, in).at("o"))
        << v;
  }
}

TEST(TechMap, RecursiveDecompositionToArity3) {
  Rng rng(5);
  Dfg dfg;
  std::vector<NodeRef> inputs;
  for (int i = 0; i < 7; ++i) {
    inputs.push_back(dfg.add_input("x" + std::to_string(i)));
  }
  const BitVector tt = random_tt(rng, 7);
  dfg.mark_output(dfg.add_lut("big", inputs, tt), "o");
  const Dfg out = decompose_to_arity(dfg, 3);
  EXPECT_LE(out.max_arity(), 3u);
  // Spot-check 40 random vectors.
  for (int v = 0; v < 40; ++v) {
    ValueMap in;
    for (int i = 0; i < 7; ++i) {
      in["x" + std::to_string(i)] = rng.next_bool();
    }
    EXPECT_EQ(netlist::evaluate(dfg, in).at("o"),
              netlist::evaluate(out, in).at("o"));
  }
}

TEST(TechMap, RejectsTinyTarget) {
  Dfg dfg;
  dfg.add_input("a");
  EXPECT_THROW(decompose_to_arity(dfg, 2), InvalidArgument);
}

TEST(ContextMerge, ExtractsClassUses) {
  MultiContextNetlist nl(2);
  for (int c = 0; c < 2; ++c) {
    Dfg dfg;
    const NodeRef a = dfg.add_input("a");
    const NodeRef b = dfg.add_input("b");
    dfg.mark_output(
        dfg.add_lut("x", {a, b}, BitVector::from_string("1000")), "o");
    nl.context(c) = std::move(dfg);
  }
  const auto sharing = netlist::analyze_sharing(nl);
  const auto uses = lut_class_uses(nl, sharing);
  ASSERT_EQ(uses.size(), 1u);
  EXPECT_EQ(uses[0].contexts, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(uses[0].arity, 2u);
  EXPECT_TRUE(uses[0].is_shared());
  EXPECT_EQ(uses[0].fanin_classes.size(), 2u);
}

// --- Plane allocation -------------------------------------------------------

ClassUse make_use(std::size_t cls, std::vector<std::size_t> contexts,
                  std::size_t arity,
                  std::vector<std::size_t> fanins = {}) {
  ClassUse use;
  use.cls = cls;
  use.contexts = std::move(contexts);
  use.arity = arity;
  use.truth_table = BitVector(std::size_t{1} << arity);
  if (fanins.empty()) {
    for (std::size_t i = 0; i < arity; ++i) {
      fanins.push_back(1000 + cls * 10 + i);
    }
  }
  use.fanin_classes = std::move(fanins);
  return use;
}

TEST(PlaneAlloc, PlanesOfUsesLowBits) {
  EXPECT_EQ(planes_of({0, 2}, 2), (std::vector<std::size_t>{0}));
  EXPECT_EQ(planes_of({1, 3}, 2), (std::vector<std::size_t>{1}));
  EXPECT_EQ(planes_of({0, 1}, 2), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(planes_of({0, 1, 2, 3}, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(planes_of({3}, 4), (std::vector<std::size_t>{3}));
}

// The paper's worked example shape (Figs. 13-14): two contexts, base-2
// LUTs; O1/O4 context-specific 2-input nodes, O2 a shared 3-input node.
// Global control needs 3 LUTs; local control maps it in 2.
TEST(PlaneAlloc, PaperExampleGlobalVsLocal) {
  // O1 and O4 both read the same inputs R, T (fanin classes 900, 901), as
  // in Fig. 13 where LUT1 stores both behind shared pins.
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0}, 2, {900, 901}));  // O1 (paper context 1)
  uses.push_back(make_use(1, {1}, 2, {900, 901}));  // O4 (paper context 2)
  uses.push_back(make_use(2, {0, 1}, 3));           // O5 = shared O2/O3

  const auto global =
      allocate_planes(uses, 2, 2, lut::SizeControl::kGlobal);
  const auto local = allocate_planes(uses, 2, 2, lut::SizeControl::kLocal);

  // The paper's headline: 3 globally controlled LUTs vs 2 locally
  // controlled ones (Fig. 13(b) vs Fig. 14(b)).
  EXPECT_EQ(global.num_slots(), 3u);
  EXPECT_EQ(local.num_slots(), 2u);
  EXPECT_EQ(local.duplicated_bits(), 0u);
  EXPECT_EQ(global.controller_se_cost(), 0u);
  EXPECT_GT(local.controller_se_cost(), 0u);
}

// Fig. 13's redundancy: under a global 2-plane mode, a class shared by
// both contexts stores its table in BOTH planes (LUT3 storing O3 twice);
// local control gives it a single-plane slot instead.
TEST(PlaneAlloc, GlobalControlDuplicatesSharedTables) {
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0}, 2, {900, 901}));  // context-specific
  uses.push_back(make_use(1, {1}, 2, {900, 901}));  // context-specific
  uses.push_back(make_use(2, {0, 1}, 2));  // shared across both contexts

  const auto global =
      allocate_planes(uses, 2, 2, lut::SizeControl::kGlobal);
  const auto local = allocate_planes(uses, 2, 2, lut::SizeControl::kLocal);

  EXPECT_GT(global.duplicated_bits(), 0u);
  EXPECT_EQ(local.duplicated_bits(), 0u);
  EXPECT_LE(local.used_bits(), global.used_bits());
}

TEST(PlaneAlloc, LocalNeverUsesMoreSlotsThanGlobal) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ClassUse> uses;
    const std::size_t count = 4 + rng.next_below(12);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::size_t> ctxs;
      for (std::size_t c = 0; c < 4; ++c) {
        if (rng.next_bool(0.5)) {
          ctxs.push_back(c);
        }
      }
      if (ctxs.empty()) {
        ctxs.push_back(rng.next_below(4));
      }
      uses.push_back(
          make_use(i, ctxs, 2 + rng.next_below(3)));  // arity 2..4
    }
    const auto global =
        allocate_planes(uses, 4, 4, lut::SizeControl::kGlobal);
    const auto local = allocate_planes(uses, 4, 4, lut::SizeControl::kLocal);
    EXPECT_LE(local.num_slots(), global.num_slots()) << "trial " << trial;
  }
}

TEST(PlaneAlloc, DisjointContextsPackIntoOneSlot) {
  // Four context-specific functions over the SAME four signals pack into a
  // single 4-plane slot (each context reads its own plane).
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0}, 4, {900, 901, 902, 903}));
  uses.push_back(make_use(1, {1}, 4, {900, 901, 902, 903}));
  uses.push_back(make_use(2, {2}, 4, {900, 901, 902, 903}));
  uses.push_back(make_use(3, {3}, 4, {900, 901, 902, 903}));
  const auto local = allocate_planes(uses, 4, 4, lut::SizeControl::kLocal);
  EXPECT_EQ(local.num_slots(), 1u);
  EXPECT_EQ(local.slots[0].mode.planes, 4u);
}

TEST(PlaneAlloc, SharedAllContextsClassGetsSinglePlane) {
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0, 1, 2, 3}, 6));
  const auto local = allocate_planes(uses, 4, 4, lut::SizeControl::kLocal);
  ASSERT_EQ(local.num_slots(), 1u);
  EXPECT_EQ(local.slots[0].mode, (lut::LutMode{6, 1}));
  EXPECT_EQ(local.duplicated_bits(), 0u);
}

TEST(PlaneAlloc, OversizedClassThrows) {
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0}, 7));  // > base 4 + 2 ID bits
  EXPECT_THROW(allocate_planes(uses, 4, 4, lut::SizeControl::kLocal),
               FlowError);
  EXPECT_THROW(allocate_planes(uses, 4, 4, lut::SizeControl::kGlobal),
               FlowError);
}

TEST(PlaneAlloc, EveryClassGetsExactlyOneSlot) {
  std::vector<ClassUse> uses;
  for (std::size_t i = 0; i < 10; ++i) {
    uses.push_back(make_use(i, {i % 4}, 3));
  }
  const auto alloc = allocate_planes(uses, 4, 4, lut::SizeControl::kLocal);
  EXPECT_EQ(alloc.slot_of_class.size(), 10u);
  std::size_t entries = 0;
  for (const auto& slot : alloc.slots) {
    entries += slot.entries.size();
    // Plane claims within a slot never collide.
    std::set<std::size_t> claimed;
    for (const auto& e : slot.entries) {
      for (const std::size_t p : e.planes) {
        EXPECT_TRUE(claimed.insert(p).second);
      }
    }
  }
  EXPECT_EQ(entries, 10u);
}

TEST(PlaneAlloc, BudgetBitsScalesWithSlots) {
  std::vector<ClassUse> uses;
  uses.push_back(make_use(0, {0}, 4));
  const auto alloc = allocate_planes(uses, 4, 4, lut::SizeControl::kLocal);
  EXPECT_EQ(alloc.budget_bits(4, 4), alloc.num_slots() * 64u);
}

/// A seeded random use set on `n` contexts with base-4 LUTs: single- and
/// multi-context classes of arity 1 up to the single-plane LUT size, whose
/// fanins come from a small signal pool so that slots share pins.
std::vector<ClassUse> random_uses(Rng& rng, std::size_t n, std::size_t count) {
  const std::size_t max_arity =
      4 + static_cast<std::size_t>(std::countr_zero(n));
  std::vector<ClassUse> uses;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::size_t> contexts;
    switch (rng.next_below(4)) {
      case 0:  // one context
        contexts.push_back(rng.next_below(n));
        break;
      case 1:  // every context
        for (std::size_t c = 0; c < n; ++c) {
          contexts.push_back(c);
        }
        break;
      default:  // a random subset
        for (std::size_t c = 0; c < n; ++c) {
          if (rng.next_bool(0.3)) {
            contexts.push_back(c);
          }
        }
        if (contexts.empty()) {
          contexts.push_back(rng.next_below(n));
        }
    }
    const std::size_t arity =
        1 + rng.next_below(rng.next_bool(0.8) ? 4 : max_arity);
    std::vector<std::size_t> fanins;
    while (fanins.size() < arity) {
      const std::size_t f = 900 + rng.next_below(12);
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      }
    }
    uses.push_back(make_use(i, std::move(contexts), arity, std::move(fanins)));
  }
  return uses;
}

/// The slot count, each slot's mode and bit counts, and each entry's class
/// and planes, in allocation order; slot_of_class must agree with them.
std::uint64_t allocation_digest(const PlaneAllocation& alloc) {
  common::Hasher h;
  h.size(alloc.num_slots());
  for (std::size_t s = 0; s < alloc.slots.size(); ++s) {
    const Slot& slot = alloc.slots[s];
    h.size(slot.mode.inputs).size(slot.mode.planes);
    h.size(slot.used_bits).size(slot.duplicated_bits);
    h.size(slot.entries.size());
    for (const SlotEntry& e : slot.entries) {
      EXPECT_EQ(alloc.slot_of_class.at(e.use.cls), s);
      h.size(e.use.cls).size(e.planes.size());
      for (const std::size_t p : e.planes) {
        h.size(p);
      }
    }
  }
  EXPECT_EQ(alloc.slot_of_class.size(), [&] {
    std::size_t entries = 0;
    for (const Slot& slot : alloc.slots) {
      entries += slot.entries.size();
    }
    return entries;
  }());
  return h.digest();
}

// Pins the exact allocations (slots, modes, entry planes) over seeded
// random use sets, so a faster allocator must reproduce them bit for bit.
// The digests were taken from the copying allocator this one replaced.
TEST(PlaneAlloc, RandomUseSetsAllocateExactlyAsPinned) {
  struct Case {
    std::size_t n;
    lut::SizeControl control;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {2, lut::SizeControl::kGlobal, 0x52d4562ae3f99cf5ull},
      {2, lut::SizeControl::kLocal, 0x8550fc0ab45164feull},
      {4, lut::SizeControl::kGlobal, 0x83bc07da8e168410ull},
      {4, lut::SizeControl::kLocal, 0x81142dfd0449e5feull},
      {8, lut::SizeControl::kGlobal, 0x6625c5308238fd68ull},
      {8, lut::SizeControl::kLocal, 0x3ab6de4177767751ull},
      {64, lut::SizeControl::kGlobal, 0x9969bb12b201c821ull},
      {64, lut::SizeControl::kLocal, 0xaf6234e91bdac8b7ull},
  };
  for (const Case& c : cases) {
    common::Hasher h;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919 + c.n);
      const auto uses = random_uses(rng, c.n, 40 + 30 * seed);
      h.u64(allocation_digest(allocate_planes(uses, 4, c.n, c.control)));
    }
    EXPECT_EQ(h.digest(), c.digest)
        << "n=" << c.n << " control=" << lut::to_string(c.control);
  }
}

}  // namespace
}  // namespace mcfpga::mapping
