// GraphSlot: the routing graph a compile service keeps between compiles.
//
// A RoutingGraph is a pure function of the grown FabricSpec, and VPR
// builds it once per architecture.  cache::CompileService owns one slot;
// every compile it runs (full, delta, closure, each daemon worker) points
// its FlowContext::graph_slot at it, and size_fabric_and_build_graph then
// takes the held graph when the grown spec matches and builds one
// otherwise.  Plain core::compile() has no slot and builds its own graph.
//
// The key is the whole FabricSpec, compared by value against the held
// graph's spec(): a digest alone could collide and hand out a wrong graph.
//
// Thread safety: the comparison runs under a mutex; graphs are built and
// freed outside it.  A miss releases the held graph before it builds the
// next one, so the slot never holds more than kHeldGraphs (a compile that
// still reads a released graph keeps it alive through its shared_ptr).
// When two threads miss on the same spec, the second returns the graph
// the first stored and drops its own.  A RoutingGraph is read-only after
// construction, so concurrent compiles share one safely.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>

#include "arch/routing_graph.hpp"

namespace mcfpga::core {

class GraphSlot {
 public:
  /// Graphs held between compiles.  Measured over 20 s perfbench runs
  /// (seed 1, 4-core host): holding 4 raised cold_flow's peak RSS by 23%
  /// (at the benchmark's 24% bound) and serve_mix's by 20%; holding 2 by
  /// 12% and 16.5%; holding 1 by 2% and 7%, while edit_loop, whose delta
  /// ops all run on one fabric, still reuses its graph on every op.
  static constexpr std::size_t kHeldGraphs = 1;

  /// The routing graph of `spec`: a held one whose spec equals `spec`, or
  /// a newly built one, which replaces the least recently used held graph.
  /// Throws what RoutingGraph's constructor throws on an invalid spec.
  std::shared_ptr<const arch::RoutingGraph> acquire(
      const arch::FabricSpec& spec);

  /// Graphs this slot has built (a reused graph counts once).
  std::size_t builds() const;

 private:
  /// Moves the held graph of `spec` to the front and returns it; null when
  /// none is held.  Requires mu_.
  std::shared_ptr<const arch::RoutingGraph> find_locked(
      const arch::FabricSpec& spec);

  mutable std::mutex mu_;
  /// Most recently used first; null entries are empty.
  std::array<std::shared_ptr<const arch::RoutingGraph>, kHeldGraphs> held_;
  std::size_t builds_ = 0;
};

}  // namespace mcfpga::core
