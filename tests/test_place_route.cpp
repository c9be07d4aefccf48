// Unit tests for the placer and the PathFinder router.
#include <gtest/gtest.h>

#include <set>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"

namespace mcfpga {
namespace {

using arch::FabricSpec;
using arch::RoutingGraph;
using place::Placement;
using place::PlacementNet;
using place::PlacementProblem;
using place::PlacerOptions;
using place::Terminal;
using route::RouteNet;
using route::Router;
using route::RouterOptions;

FabricSpec spec_4x4(std::size_t w = 4, std::size_t dl = 2) {
  FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = w;
  spec.double_length_tracks = dl;
  return spec;
}

TEST(Placer, AssignsDistinctCellsAndPads) {
  const RoutingGraph g(spec_4x4());
  PlacementProblem prob;
  prob.num_clusters = 6;
  prob.num_io_terminals = 4;
  for (std::size_t i = 1; i < 6; ++i) {
    PlacementNet net;
    net.driver = Terminal::cluster(i - 1);
    net.sinks = {Terminal::cluster(i)};
    prob.nets.push_back(net);
  }
  const Placement p = place::place(prob, g, PlacerOptions{.seed = 3});
  ASSERT_EQ(p.cluster_pos.size(), 6u);
  std::set<std::pair<std::size_t, std::size_t>> cells(
      p.cluster_pos.begin(), p.cluster_pos.end());
  EXPECT_EQ(cells.size(), 6u);  // no overlaps
  std::set<std::size_t> pads(p.io_pads.begin(), p.io_pads.end());
  EXPECT_EQ(pads.size(), 4u);
  EXPECT_GE(p.cost, 0.0);
}

TEST(Placer, ChainPlacementBeatsWorstCase) {
  const RoutingGraph g(spec_4x4());
  PlacementProblem prob;
  prob.num_clusters = 8;
  prob.num_io_terminals = 0;
  for (std::size_t i = 1; i < 8; ++i) {
    PlacementNet net;
    net.driver = Terminal::cluster(i - 1);
    net.sinks = {Terminal::cluster(i)};
    prob.nets.push_back(net);
  }
  PlacerOptions opts;
  opts.seed = 5;
  opts.sweeps = 48;
  const Placement p = place::place(prob, g, opts);
  // A 7-link chain on a 4x4 grid places with total HPWL well under the
  // 7 * (3+3) = 42 worst case; the annealer should land <= 14.
  EXPECT_LE(p.cost, 14.0);
  EXPECT_EQ(p.cost, place::placement_cost(prob, g, p));
}

TEST(Placer, TooManyClustersThrows) {
  const RoutingGraph g(spec_4x4());
  PlacementProblem prob;
  prob.num_clusters = 17;  // > 16 cells
  EXPECT_THROW(place::place(prob, g, {}), FlowError);
}

TEST(Placer, NetWeightScalesCost) {
  const RoutingGraph g(spec_4x4());
  PlacementProblem prob;
  prob.num_clusters = 2;
  PlacementNet net;
  net.driver = Terminal::cluster(0);
  net.sinks = {Terminal::cluster(1)};
  net.weight = 3;
  prob.nets.push_back(net);
  Placement p;
  p.cluster_pos = {{0, 0}, {2, 1}};
  EXPECT_DOUBLE_EQ(place::placement_cost(prob, g, p), 3.0 * 3.0);
}

TEST(Placer, DeterministicForSeed) {
  const RoutingGraph g(spec_4x4());
  PlacementProblem prob;
  prob.num_clusters = 5;
  prob.num_io_terminals = 2;
  PlacementNet net;
  net.driver = Terminal::io(0);
  net.sinks = {Terminal::cluster(0), Terminal::cluster(4),
               Terminal::io(1)};
  prob.nets.push_back(net);
  const Placement a = place::place(prob, g, PlacerOptions{.seed = 9});
  const Placement b = place::place(prob, g, PlacerOptions{.seed = 9});
  EXPECT_EQ(a.cluster_pos, b.cluster_pos);
  EXPECT_EQ(a.io_pads, b.io_pads);
}

// --- Router -----------------------------------------------------------------

TEST(Router, RoutesSimpleNetAllContexts) {
  const RoutingGraph g(spec_4x4());
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(4);
  for (std::size_t c = 0; c < 4; ++c) {
    RouteNet net;
    net.name = "n";
    net.source = g.out_pin(0, 0, 0);
    net.sinks = {g.in_pin(3, 3, 0)};
    nets[c].push_back(net);
  }
  const auto result = router.route(nets);
  EXPECT_TRUE(result.success);
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_EQ(result.nets[c].size(), 1u);
    ASSERT_EQ(result.nets[c][0].paths.size(), 1u);
    EXPECT_GT(result.nets[c][0].paths[0].switch_count(), 0u);
  }
  // Some switch is on in every context (same route each time is allowed).
  std::size_t on_rows = 0;
  for (const auto& p : result.switch_patterns) {
    if (p.word() != 0) {
      ++on_rows;
    }
  }
  EXPECT_GT(on_rows, 0u);
}

TEST(Router, MultiSinkNetBuildsTree) {
  const RoutingGraph g(spec_4x4());
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(4);
  RouteNet net;
  net.name = "fanout";
  net.source = g.out_pin(1, 1, 0);
  net.sinks = {g.in_pin(0, 0, 0), g.in_pin(3, 0, 1), g.in_pin(1, 3, 2)};
  nets[0].push_back(net);
  const auto result = router.route(nets);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.nets[0][0].paths.size(), 3u);
}

TEST(Router, CongestionResolvedByNegotiation) {
  // Narrow fabric, many parallel nets in one context.
  FabricSpec spec = spec_4x4(/*w=*/3, /*dl=*/0);
  const RoutingGraph g(spec);
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(4);
  for (std::size_t i = 0; i < 3; ++i) {
    RouteNet net;
    net.name = "n" + std::to_string(i);
    net.source = g.out_pin(0, i, 0);
    net.sinks = {g.in_pin(3, i, 0)};
    nets[0].push_back(net);
  }
  const auto result = router.route(nets);
  EXPECT_TRUE(result.success);
  // No wire is used by two nets in context 0: checked via switch patterns —
  // collect wires per net path and assert disjoint.
  std::set<arch::NodeId> used;
  for (const auto& net : result.nets[0]) {
    std::set<arch::NodeId> mine;
    for (const auto& path : net.paths) {
      for (const auto e : path.edges) {
        const auto& node = g.node(g.edge(e).to);
        if (node.kind == arch::NodeKind::kWire) {
          mine.insert(g.edge(e).to);
        }
      }
    }
    for (const auto w : mine) {
      EXPECT_TRUE(used.insert(w).second) << "wire shared between nets";
    }
  }
}

TEST(Router, ContextsRouteIndependently) {
  const RoutingGraph g(spec_4x4());
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(4);
  // Different source/sink per context; same physical wires may be reused.
  for (std::size_t c = 0; c < 4; ++c) {
    RouteNet net;
    net.name = "n";
    net.source = g.out_pin(c % 4, 0, 0);
    net.sinks = {g.in_pin(3 - (c % 4), 3, 0)};
    nets[c].push_back(net);
  }
  const auto result = router.route(nets);
  EXPECT_TRUE(result.success);
  // Patterns reflect per-context usage.
  const auto bs = result.to_bitstream(g);
  EXPECT_EQ(bs.num_rows(), g.num_switches());
}

TEST(Router, DoubleLengthPreferenceShortensLongRoutes) {
  FabricSpec spec;
  spec.width = 8;
  spec.height = 1;
  spec.channel_width = 2;
  spec.double_length_tracks = 2;
  const RoutingGraph g(spec);

  const auto route_once = [&](bool prefer) {
    RouterOptions opts;
    opts.prefer_double_length = prefer;
    const Router router(g, opts);
    std::vector<std::vector<RouteNet>> nets(4);
    RouteNet net;
    net.name = "long";
    net.source = g.out_pin(0, 0, 0);
    net.sinks = {g.in_pin(7, 0, 0)};
    nets[0].push_back(net);
    const auto result = router.route(nets);
    EXPECT_TRUE(result.success);
    return result.nets[0][0].paths[0];
  };

  const auto fast = route_once(true);
  const auto slow = route_once(false);
  EXPECT_GT(fast.diamond_count, 0u);
  EXPECT_LT(fast.switch_count(), slow.switch_count());
}

TEST(Router, ImpossibleRouteThrows) {
  // Two disconnected columns: width 2 with zero channel tracks is invalid,
  // so instead ask for a sink pin index that exists but route between two
  // fabrics' pads is always possible; use a 1x1 fabric with no wires.
  FabricSpec spec;
  spec.width = 1;
  spec.height = 1;
  spec.channel_width = 1;
  spec.double_length_tracks = 0;
  const RoutingGraph g(spec);
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(4);
  RouteNet net;
  net.name = "imp";
  net.source = g.out_pin(0, 0, 0);
  net.sinks = {g.in_pin(0, 0, 0)};
  nets[0].push_back(net);
  // 1x1 fabric has no wires at all, so pin-to-pin routing must fail.
  EXPECT_THROW(router.route(nets), FlowError);
}

TEST(Router, NetCountMismatchThrows) {
  const RoutingGraph g(spec_4x4());
  const Router router(g);
  std::vector<std::vector<RouteNet>> nets(2);  // fabric has 4 contexts
  EXPECT_THROW(router.route(nets), InvalidArgument);
}

}  // namespace
}  // namespace mcfpga
