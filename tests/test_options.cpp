// Entry validation of RouterOptions / PlacerOptions / CompileOptions
// delays: bad knob values used to fail silently (or loop forever); now
// they raise InvalidArgument at the API boundary.
#include <gtest/gtest.h>

#include <limits>

#include "arch/routing_graph.hpp"
#include "cache/incremental.hpp"
#include "common/error.hpp"
#include "core/flow.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "workload/circuits.hpp"

namespace mcfpga {
namespace {

arch::FabricSpec tiny_spec() {
  arch::FabricSpec spec;
  spec.width = 2;
  spec.height = 2;
  spec.channel_width = 4;
  return spec;
}

TEST(RouterOptionsValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(route::RouterOptions{}.validate());
}

TEST(RouterOptionsValidation, RejectsZeroIterations) {
  route::RouterOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(RouterOptionsValidation, RejectsNegativeIncrements) {
  route::RouterOptions o;
  o.history_increment = -1.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.present_factor_growth = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.max_criticality = 1.0;  // would erase congestion pressure entirely
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(RouterOptionsValidation, RejectsBadCriticalityExponentSchedules) {
  route::RouterOptions o;
  o.criticality_exponent_schedule.start = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule.start = -2.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule.step = -0.5;  // ramps must not decay
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule = {2.0, 0.5, 1.0};  // ceiling below start
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule = {1.0, 0.5, 8.0};  // a real VPR ramp
  EXPECT_NO_THROW(o.validate());
}

TEST(RouterOptionsValidation, RouterConstructorValidates) {
  const arch::RoutingGraph graph(tiny_spec());
  route::RouterOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(route::Router(graph, o), InvalidArgument);
}

TEST(CompileOptionsValidation, RejectsNegativeAndNonFiniteDelays) {
  // A negative SE delay used to send the timing-driven expansion around
  // negative-cost cycles until memory ran out (and, untimed, to report a
  // critical path shortened by every switch).  Every compile entry point
  // seeds its FlowContext through make_flow_context, which now refuses.
  const auto nl = workload::pipeline_workload(4, 4);
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.5, nan, inf}) {
    for (const bool timed : {false, true}) {
      core::CompileOptions se;
      se.router.timing_mode = timed;
      se.delay.se_delay = bad;
      EXPECT_THROW(core::compile(nl, spec, se), InvalidArgument)
          << "se_delay " << bad << " timed " << timed;
      core::CompileOptions lut = se;
      lut.delay.se_delay = 1.0;
      lut.delay.lut_delay = bad;
      EXPECT_THROW(core::compile(nl, spec, lut), InvalidArgument)
          << "lut_delay " << bad << " timed " << timed;
    }
  }
  core::CompileOptions cached;
  cached.delay.se_delay = -0.5;
  cache::CompileService service;
  EXPECT_THROW(service.compile(nl, spec, cached), InvalidArgument);
}

TEST(CompileOptionsValidation, ZeroSeDelayCompiles) {
  // Free switches are a legal model; under kBucket the derived bucket
  // quantum shrinks to the (1 - max_criticality) * 0.5 increment instead
  // of losing exactness.
  const auto nl = workload::pipeline_workload(4, 4);
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  for (const route::QueueMode mode :
       {route::QueueMode::kBinaryHeap, route::QueueMode::kBucket}) {
    core::CompileOptions o;
    o.placer.timing_mode = true;
    o.router.timing_mode = true;
    o.router.queue_mode = mode;
    o.delay.se_delay = 0.0;
    const core::CompiledDesign d = core::compile(nl, spec, o);
    EXPECT_TRUE(d.routing.success);
  }
}

TEST(PlacerOptionsValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(place::PlacerOptions{}.validate());
}

TEST(PlacerOptionsValidation, RejectsZeroBudgets) {
  place::PlacerOptions o;
  o.sweeps = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.num_restarts = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(PlacerOptionsValidation, RejectsBadWeightsAndSchedules) {
  place::PlacerOptions o;
  o.cooling = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.cooling = 1.5;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.initial_temperature_factor = -0.1;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.timing_weight = -1.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(PlacerOptionsValidation, PlaceValidatesAtEntry) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 1;
  place::PlacerOptions o;
  o.seed = 1;
  o.sweeps = 0;
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
}

TEST(PlacerOptionsValidation, PlaceRejectsOutOfRangeCriticality) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 2;
  place::PlacementNet net;
  net.driver = place::Terminal::cluster(0);
  net.sinks = {place::Terminal::cluster(1)};
  net.criticality = 1.5;
  prob.nets.push_back(net);
  place::PlacerOptions o;
  o.seed = 1;
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
}

place::PlacementProblem crit_problem() {
  place::PlacementProblem prob;
  prob.num_clusters = 4;
  for (std::size_t i = 0; i + 1 < prob.num_clusters; ++i) {
    place::PlacementNet net;
    net.driver = place::Terminal::cluster(i);
    net.sinks = {place::Terminal::cluster(i + 1)};
    net.weight = 2;
    net.criticality = 0.25 * static_cast<double>(i + 1);
    prob.nets.push_back(net);
  }
  return prob;
}

TEST(PlacerTimingMode, CriticalitiesInertWhenOff) {
  // With timing_mode off, net criticalities must not perturb the anneal:
  // bit-identical placement to the same problem with zero criticalities.
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacerOptions o;
  o.seed = 3;
  const place::PlacementProblem with_crit = crit_problem();
  place::PlacementProblem without = with_crit;
  for (auto& net : without.nets) {
    net.criticality = 0.0;
  }
  const auto a = place::place(with_crit, graph, o);
  const auto b = place::place(without, graph, o);
  EXPECT_EQ(a.cluster_pos, b.cluster_pos);
  EXPECT_EQ(a.io_pads, b.io_pads);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(PlacerTimingMode, CostMatchesWeightedOracle) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacerOptions o;
  o.seed = 3;
  o.timing_mode = true;
  o.timing_weight = 4.0;
  const place::PlacementProblem prob = crit_problem();
  const auto p = place::place(prob, graph, o);
  EXPECT_DOUBLE_EQ(p.cost, place::placement_cost(prob, graph, p, o));
  // A fully critical net weighs (1 + timing_weight)x its base weight.
  place::PlacementNet net;
  net.weight = 2;
  net.criticality = 1.0;
  EXPECT_EQ(place::effective_net_weight(net, o), 10);
  net.criticality = 0.0;
  EXPECT_EQ(place::effective_net_weight(net, o), 2);
}

}  // namespace
}  // namespace mcfpga
