#include "route/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "route/router_core.hpp"
#include "route/schedule.hpp"

namespace mcfpga::route {

namespace {

using arch::EdgeId;
using arch::NodeId;

}  // namespace

void RouteHistory::prepare(std::size_t num_contexts, std::size_t num_nodes) {
  per_context.resize(num_contexts);
  for (auto& h : per_context) {
    if (!h.empty() && h.size() != num_nodes) {
      // Recorded on a different routing graph: stale per-node state, not
      // a seed.  Clear instead of letting the core silently ignore it (or
      // worse, a future resize alias half of it onto the wrong nodes).
      h.clear();
    }
  }
}

std::size_t RouteResult::critical_switches(std::size_t context) const {
  std::size_t worst = 0;
  for (const auto& net : nets[context]) {
    for (const auto& path : net.paths) {
      worst = std::max(worst, path.switch_count());
    }
  }
  return worst;
}

config::Bitstream RouteResult::to_bitstream(
    const arch::RoutingGraph& graph) const {
  const std::size_t n =
      switch_patterns.empty() ? 0 : switch_patterns[0].num_contexts();
  config::Bitstream bs(n == 0 ? 2 : n);
  for (std::size_t s = 0; s < switch_patterns.size(); ++s) {
    bs.add_row(graph.rr_switch(static_cast<arch::SwitchId>(s)).name,
               config::ResourceKind::kRoutingSwitch, switch_patterns[s]);
  }
  return bs;
}

void RouterOptions::validate() const {
  MCFPGA_REQUIRE(criticality_exponent_schedule.start > 0.0,
                 "criticality exponent schedule must start positive");
  MCFPGA_REQUIRE(criticality_exponent_schedule.step >= 0.0,
                 "criticality exponent schedule must be non-decreasing");
  MCFPGA_REQUIRE(
      criticality_exponent_schedule.max >= criticality_exponent_schedule.start,
      "criticality exponent ceiling must be at least the start value");
}

std::vector<std::size_t> cross_context_conflicts(
    const std::vector<std::vector<std::uint8_t>>& usage) {
  const std::size_t num_contexts = usage.size();
  const std::size_t num_nodes = num_contexts == 0 ? 0 : usage[0].size();
  std::vector<std::uint16_t> count(num_nodes, 0);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    for (std::size_t n = 0; n < num_nodes; ++n) {
      count[n] = static_cast<std::uint16_t>(count[n] + (usage[c][n] != 0));
    }
  }
  std::vector<std::size_t> conflicts(num_contexts, 0);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (usage[c][n] != 0 && count[n] >= 2) {
        ++conflicts[c];
      }
    }
  }
  return conflicts;
}

std::vector<std::uint8_t> wire_usage(const arch::RoutingGraph& graph,
                                     const std::vector<RoutedNet>& nets) {
  // A bitmap deduplicates naturally: a node may sit on many paths of one
  // tree.
  std::vector<std::uint8_t> usage(graph.num_nodes(), 0);
  for (const auto& net : nets) {
    for (const auto& path : net.paths) {
      for (const EdgeId e : path.edges) {
        const NodeId to = graph.edge(e).to;
        if (graph.node(to).kind == arch::NodeKind::kWire) {
          usage[static_cast<std::size_t>(to)] = 1;
        }
      }
    }
  }
  return usage;
}

std::vector<std::size_t> cross_context_conflicts(
    const arch::RoutingGraph& graph,
    const std::vector<std::vector<RoutedNet>>& nets_per_context) {
  std::vector<std::vector<std::uint8_t>> usage;
  usage.reserve(nets_per_context.size());
  for (const auto& nets : nets_per_context) {
    usage.push_back(wire_usage(graph, nets));
  }
  return cross_context_conflicts(usage);
}

Router::Router(const arch::RoutingGraph& graph, RouterOptions options)
    : graph_(graph), options_(options) {
  options_.validate();
}

RouteResult Router::route(
    const std::vector<std::vector<RouteNet>>& nets_per_context,
    const std::vector<timing::ContextTimingSpec>* timing,
    RouteHistory* history, const std::vector<double>* context_criticality,
    CorePool* pool) const {
  const std::size_t num_contexts = graph_.spec().num_contexts;
  MCFPGA_REQUIRE(nets_per_context.size() == num_contexts,
                 "net list must cover every context");
  MCFPGA_REQUIRE(timing == nullptr || timing->size() == num_contexts,
                 "timing specs must cover every context");
  MCFPGA_REQUIRE(
      context_criticality == nullptr ||
          context_criticality->size() == num_contexts,
      "context criticalities must cover every context");
  const bool interleaved =
      options_.cross_context_mode == CrossContextMode::kInterleaved;
  // The interleaved post-pass seeds its sessions from the baseline's final
  // PathFinder history, so the baseline must record one even when the
  // caller keeps none.
  RouteHistory local_history;
  if (history == nullptr && interleaved) {
    history = &local_history;
  }
  if (history != nullptr) {
    history->prepare(num_contexts, graph_.num_nodes());
  }

  std::vector<RouterCore::ContextResult> per_context(num_contexts);
  std::vector<std::exception_ptr> errors(num_contexts);

  const std::size_t workers =
      effective_threads(options_.num_threads, num_contexts);
  // One RouterCore (with its arena-backed scratch) per worker thread,
  // drawn from the caller's pool when it has one so repeated calls reuse
  // warm scratch.  Slots are claimed first-come — cores are
  // interchangeable (route_pass fully resets per-pass state), so the
  // result does not depend on which thread grabs which slot.  The
  // interleaved post-pass keeps one live session per CONTEXT, so under
  // kInterleaved the pool must cover the contexts, not just the workers.
  CorePool local_pool;
  CorePool& cores = pool != nullptr ? *pool : local_pool;
  cores.prepare(interleaved ? std::max(workers, num_contexts) : workers,
                graph_, options_);
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  std::atomic<std::size_t> next_slot{0};
  parallel_for_index(num_contexts, workers, [&]() {
    RouterCore* core = &cores.core(next_slot.fetch_add(1));
    return [&, core](std::size_t c) {
      try {
        per_context[c] = core->route_pass(
            nets_per_context[c], timing ? &(*timing)[c] : nullptr,
            history ? &history->per_context[c] : nullptr);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    };
  });
  // Re-raise in context order (matches what serial routing would hit
  // first).
  for (std::size_t c = 0; c < num_contexts; ++c) {
    if (errors[c]) {
      std::rethrow_exception(errors[c]);
    }
  }

  if (interleaved) {
    return interleave_contexts(graph_, nets_per_context, timing, *history,
                               context_criticality, cores,
                               std::move(per_context), start);
  }
  // Deterministic merge: contexts in order, independent of worker timing.
  return merge_context_results(graph_, std::move(per_context));
}

}  // namespace mcfpga::route
