// Delta-cost correctness of the incremental placer.
//
// Two layers: (1) fuzz IncrementalHpwl directly — replay random move
// sequences with random commit/rollback decisions and assert the running
// cost equals a from-scratch recompute after every single step; (2) run
// the full annealer in incremental and full-recompute modes on the same
// seeds and require bit-identical Placements (positions, pads, cost), plus
// the exactness of the final cost against placement_cost().
#include <gtest/gtest.h>

#include <vector>

#include "arch/routing_graph.hpp"
#include "common/rng.hpp"
#include "place/net_index.hpp"
#include "place/placer.hpp"

namespace mcfpga {
namespace {

using place::IncrementalHpwl;
using place::NetIndex;
using place::Placement;
using place::PlacementNet;
using place::PlacementProblem;
using place::PlacerOptions;
using place::Terminal;

Terminal random_terminal(Rng& rng, const PlacementProblem& prob) {
  const std::size_t total = prob.num_clusters + prob.num_io_terminals;
  const std::size_t pick = static_cast<std::size_t>(rng.next_below(total));
  if (pick < prob.num_clusters) {
    return Terminal::cluster(pick);
  }
  return Terminal::io(pick - prob.num_clusters);
}

/// Random problem; terminals may repeat within a net (driver re-listed as
/// a sink, duplicated sinks) so multiplicity handling gets exercised.
PlacementProblem random_problem(std::uint64_t seed, std::size_t clusters,
                                std::size_t ios, std::size_t nets,
                                std::size_t max_sinks) {
  Rng rng(seed);
  PlacementProblem prob;
  prob.num_clusters = clusters;
  prob.num_io_terminals = ios;
  for (std::size_t n = 0; n < nets; ++n) {
    PlacementNet net;
    net.driver = random_terminal(rng, prob);
    const std::size_t sinks =
        static_cast<std::size_t>(rng.next_below(max_sinks + 1));
    for (std::size_t s = 0; s < sinks; ++s) {
      net.sinks.push_back(random_terminal(rng, prob));
    }
    // Includes weight 0: a free net must stay free (placement_cost parity).
    net.weight = static_cast<std::size_t>(rng.next_below(5));
    prob.nets.push_back(std::move(net));
  }
  return prob;
}

/// Replays `steps` random 1- or 2-terminal moves, committing or rolling
/// back at random, and checks exactness after every step.
void fuzz_against_recompute(const PlacementProblem& prob, std::uint64_t seed,
                            std::size_t steps) {
  const NetIndex index(prob);
  const std::size_t terms = prob.num_clusters + prob.num_io_terminals;
  ASSERT_EQ(index.num_terminals(), terms);

  Rng rng(seed);
  std::vector<std::int32_t> xs(terms), ys(terms);
  for (std::size_t t = 0; t < terms; ++t) {
    xs[t] = static_cast<std::int32_t>(rng.next_below(30));
    ys[t] = static_cast<std::int32_t>(rng.next_below(30));
  }
  IncrementalHpwl hp(index);
  hp.reset(xs, ys);
  ASSERT_EQ(hp.cost(), hp.recompute_cost());

  for (std::size_t step = 0; step < steps; ++step) {
    IncrementalHpwl::Move moves[2];
    std::size_t count = 1 + static_cast<std::size_t>(rng.next_bool(0.5));
    moves[0].term = static_cast<std::uint32_t>(rng.next_below(terms));
    if (count == 2 && terms > 1) {
      do {
        moves[1].term = static_cast<std::uint32_t>(rng.next_below(terms));
      } while (moves[1].term == moves[0].term);
    } else {
      count = 1;
    }
    for (std::size_t i = 0; i < count; ++i) {
      moves[i].x = static_cast<std::int32_t>(rng.next_below(30));
      moves[i].y = static_cast<std::int32_t>(rng.next_below(30));
    }
    const std::int64_t before = hp.cost();
    const std::int64_t delta = hp.propose(moves, count);
    if (rng.next_bool(0.6)) {  // accept
      hp.commit();
      ASSERT_EQ(hp.cost(), before + delta) << "step " << step;
    } else {  // reject
      hp.rollback();
      ASSERT_EQ(hp.cost(), before) << "step " << step;
    }
    ASSERT_EQ(hp.cost(), hp.recompute_cost()) << "step " << step;
  }
}

TEST(IncrementalHpwl, FuzzMatchesRecomputeAcrossShapes) {
  struct Shape {
    std::size_t clusters, ios, nets, max_sinks;
  };
  const Shape shapes[] = {
      {8, 0, 12, 4},    // clusters only
      {0, 6, 8, 3},     // I/O only
      {12, 6, 20, 5},   // mixed
      {3, 2, 4, 0},     // driver-only (single-terminal) nets
      {2, 1, 6, 6},     // tiny: heavy repeats, everything on box edges
      {24, 8, 10, 16},  // few large nets
  };
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    for (std::uint64_t salt = 0; salt < 3; ++salt) {
      const PlacementProblem prob =
          random_problem(seed + salt, s.clusters, s.ios, s.nets, s.max_sinks);
      fuzz_against_recompute(prob, seed + 7 * salt + 1, 400);
    }
    seed += 50;
  }
}

TEST(IncrementalHpwl, ProposeFullMatchesIncrementalDelta) {
  const PlacementProblem prob = random_problem(5, 10, 4, 16, 4);
  const NetIndex index(prob);
  const std::size_t terms = index.num_terminals();
  Rng rng(77);
  std::vector<std::int32_t> xs(terms), ys(terms);
  for (std::size_t t = 0; t < terms; ++t) {
    xs[t] = static_cast<std::int32_t>(rng.next_below(20));
    ys[t] = static_cast<std::int32_t>(rng.next_below(20));
  }
  IncrementalHpwl inc(index);
  IncrementalHpwl full(index);
  inc.reset(xs, ys);
  full.reset(xs, ys);
  for (std::size_t step = 0; step < 200; ++step) {
    IncrementalHpwl::Move mv{
        static_cast<std::uint32_t>(rng.next_below(terms)),
        static_cast<std::int32_t>(rng.next_below(20)),
        static_cast<std::int32_t>(rng.next_below(20))};
    const std::int64_t di = inc.propose(&mv, 1);
    const std::int64_t df = full.propose_full(&mv, 1);
    ASSERT_EQ(di, df) << "step " << step;
    if (rng.next_bool()) {
      inc.commit();
      full.commit();
    } else {
      inc.rollback();
      full.rollback();
    }
    ASSERT_EQ(inc.cost(), full.cost());
  }
}

arch::FabricSpec spec_n(std::size_t n) {
  arch::FabricSpec spec;
  spec.width = n;
  spec.height = n;
  spec.channel_width = 4;
  spec.double_length_tracks = 2;
  return spec;
}

/// The acceptance criterion: for a fixed seed, incremental and
/// full-recompute annealing produce bit-identical Placements.
TEST(Placer, IncrementalBitIdenticalToFullRecompute) {
  struct Case {
    std::size_t grid, clusters, ios, nets;
  };
  const Case cases[] = {
      {5, 18, 8, 30},
      {6, 30, 0, 40},
      {4, 0, 10, 12},
  };
  std::uint64_t seed = 11;
  for (const Case& c : cases) {
    const PlacementProblem prob =
        random_problem(seed, c.clusters, c.ios, c.nets, 4);
    const arch::RoutingGraph g(spec_n(c.grid));
    PlacerOptions opts;
    opts.seed = seed;
    opts.sweeps = 24;
    opts.incremental = true;
    const Placement inc = place::place(prob, g, opts);
    opts.incremental = false;
    const Placement full = place::place(prob, g, opts);
    EXPECT_EQ(inc.cluster_pos, full.cluster_pos);
    EXPECT_EQ(inc.io_pads, full.io_pads);
    EXPECT_EQ(inc.cost, full.cost);  // bit-identical, not just close
    // Exactness against the public recompute.
    EXPECT_EQ(inc.cost, place::placement_cost(prob, g, inc));
    seed += 13;
  }
}

TEST(Placer, RestartsAreDeterministicAndNeverWorse) {
  const PlacementProblem prob = random_problem(21, 20, 6, 32, 4);
  const arch::RoutingGraph g(spec_n(5));
  PlacerOptions opts;
  opts.seed = 21;
  opts.sweeps = 16;

  const Placement single = place::place(prob, g, opts);
  ASSERT_EQ(single.restart_stats.size(), 1u);

  opts.num_restarts = 4;
  opts.num_threads = 2;
  const Placement multi_a = place::place(prob, g, opts);
  opts.num_threads = 4;
  const Placement multi_b = place::place(prob, g, opts);

  // Same seed set -> identical outcome, independent of worker count.
  EXPECT_EQ(multi_a.cluster_pos, multi_b.cluster_pos);
  EXPECT_EQ(multi_a.io_pads, multi_b.io_pads);
  EXPECT_EQ(multi_a.cost, multi_b.cost);
  EXPECT_EQ(multi_a.winning_restart, multi_b.winning_restart);

  // Restart 0 replays the single-seed run, so the winner can't be worse.
  ASSERT_EQ(multi_a.restart_stats.size(), 4u);
  EXPECT_DOUBLE_EQ(multi_a.restart_stats[0].cost, single.cost);
  EXPECT_LE(multi_a.cost, single.cost);
  // The winner is the argmin of the per-restart costs.
  for (const auto& rs : multi_a.restart_stats) {
    EXPECT_LE(multi_a.cost, rs.cost);
  }
  EXPECT_DOUBLE_EQ(multi_a.cost,
                   multi_a.restart_stats[multi_a.winning_restart].cost);
  EXPECT_EQ(multi_a.restart_stats[2].seed, opts.seed + 2);
}

}  // namespace
}  // namespace mcfpga
