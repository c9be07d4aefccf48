// Tests for the bucket-queue maze-expansion engine
// (RouterOptions::queue_mode + route/bucket_queue.hpp): the calendar
// queue's quantization mechanics (zero-cost seeds, FIFO ties, the
// overflow bucket and its FIFO-preserving rebase, the monotone clamp),
// bucket-mode routing determinism fuzzed across worker counts, the
// never-worse QoR contract against the binary heap with timing off and
// on, the derived bucket quantum's exactness bound, and kBinaryHeap's
// identity with the pre-option default engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/flow.hpp"
#include "route/bucket_queue.hpp"
#include "route/router.hpp"
#include "route/router_core.hpp"
#include "timing/net_timing.hpp"
#include "workload/circuits.hpp"

namespace mcfpga::route {
namespace {

// --- BucketQueue quantization mechanics ----------------------------------

std::vector<arch::NodeId> drain(BucketQueue& q) {
  std::vector<arch::NodeId> order;
  while (!q.empty()) {
    order.push_back(q.pop().value);
  }
  return order;
}

TEST(BucketQueue, ConfigureValidates) {
  BucketQueue q;
  EXPECT_THROW(q.configure(0.0, 8), InvalidArgument);
  EXPECT_THROW(q.configure(-0.5, 8), InvalidArgument);
  EXPECT_THROW(q.configure(0.5, 1), InvalidArgument);
  EXPECT_NO_THROW(q.configure(0.5, 2));
}

TEST(BucketQueue, PopFromEmptyThrows) {
  BucketQueue q;
  q.configure(0.5, 8);
  EXPECT_THROW(q.pop(), InvalidArgument);
  q.push(1.0, 7);
  q.pop();
  EXPECT_THROW(q.pop(), InvalidArgument);
}

TEST(BucketQueue, ZeroCostSeedsPopFirstInPushOrder) {
  // Zero-cost seeds (the source and every already-committed tree node)
  // all quantize to bucket 0 and must come back FIFO.
  BucketQueue q;
  q.configure(0.5, 16);
  q.push(0.0, 10);
  q.push(0.0, 11);
  q.push(0.3, 12);  // same bucket as the zero-cost seeds
  q.push(1.0, 13);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{10, 11, 12, 13}));
}

TEST(BucketQueue, FifoWithinABucketAndCostOrderAcross) {
  BucketQueue q;
  q.configure(1.0, 16);
  // Three exact ties and two same-bucket near-ties, interleaved with a
  // cheaper and a costlier bucket.
  q.push(5.0, 1);
  q.push(2.0, 2);
  q.push(5.0, 3);
  q.push(5.5, 4);
  q.push(9.0, 5);
  q.push(5.0, 6);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{2, 1, 3, 4, 6, 5}));
}

TEST(BucketQueue, OverflowRebasePreservesCostOrderAndFifo) {
  // Span 4 from base 0: quantized costs >= 4 overflow.  After the
  // calendar drains the queue rebases onto the smallest overflow cost
  // and the 9.x ties must still pop in insertion order.
  BucketQueue q;
  q.configure(1.0, 4);
  q.push(1.5, 1);
  q.push(9.0, 2);
  q.push(2.5, 3);
  q.push(9.2, 4);
  q.push(9.1, 5);
  q.push(6.0, 6);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{1, 3, 6, 2, 4, 5}));
}

TEST(BucketQueue, MonotoneClampNeverDropsLateCheapPushes) {
  BucketQueue q;
  q.configure(1.0, 8);
  q.push(3.7, 1);
  EXPECT_EQ(q.pop().value, 1u);  // cursor now at bucket 3
  // A push behind the cursor is filed into the current bucket instead of
  // a consumed one — still popped, never lost.
  q.push(1.2, 2);
  EXPECT_EQ(q.pop().value, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, ClearAllowsReuse) {
  BucketQueue q;
  q.configure(0.5, 8);
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(0.5, 3);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3}));
}

// --- Router-level properties ---------------------------------------------

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 8;
  spec.double_length_tracks = 4;
  return spec;
}

/// Deterministic congested multi-context route problem straight on the
/// routing graph (endpoints sampled without replacement — PathFinder's
/// exclusivity rules make duplicate endpoints unroutable).
std::vector<std::vector<RouteNet>> random_route_problem(
    const arch::RoutingGraph& g, std::size_t nets_per_context,
    std::uint64_t seed) {
  const arch::FabricSpec& spec = g.spec();
  std::uint64_t state = seed;
  const auto next = [&]() {  // splitmix64
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<RouteNet>> nets(4);
  for (std::size_t c = 0; c < nets.size(); ++c) {
    std::vector<arch::NodeId> sources;
    std::vector<arch::NodeId> sinks;
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < spec.width; ++x) {
        for (std::size_t p = 0; p < spec.logic_block.num_outputs; ++p) {
          sources.push_back(g.out_pin(x, y, p));
        }
        for (std::size_t p = 0; p < spec.logic_block.base_inputs; ++p) {
          sinks.push_back(g.in_pin(x, y, p));
        }
      }
    }
    for (std::size_t i = sources.size(); i > 1; --i) {
      std::swap(sources[i - 1], sources[next() % i]);
    }
    for (std::size_t i = sinks.size(); i > 1; --i) {
      std::swap(sinks[i - 1], sinks[next() % i]);
    }
    std::size_t sink_at = 0;
    for (std::size_t i = 0; i < nets_per_context; ++i) {
      RouteNet net;
      net.name = "n" + std::to_string(c) + "_" + std::to_string(i);
      net.source = sources[i];
      const std::size_t fanout = 1 + next() % 2;
      for (std::size_t s = 0; s < fanout && sink_at < sinks.size(); ++s) {
        net.sinks.push_back(sinks[sink_at++]);
      }
      nets[c].push_back(std::move(net));
    }
  }
  return nets;
}

void expect_same_routing(const RouteResult& a, const RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t c = 0; c < a.nets.size(); ++c) {
    ASSERT_EQ(a.nets[c].size(), b.nets[c].size()) << "context " << c;
    for (std::size_t i = 0; i < a.nets[c].size(); ++i) {
      ASSERT_EQ(a.nets[c][i].paths.size(), b.nets[c][i].paths.size());
      for (std::size_t p = 0; p < a.nets[c][i].paths.size(); ++p) {
        EXPECT_EQ(a.nets[c][i].paths[p].edges, b.nets[c][i].paths[p].edges)
            << "context " << c << " net " << i << " path " << p;
      }
    }
  }
}

std::size_t worst_critical_switches(const RouteResult& r) {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < r.nets.size(); ++c) {
    worst = std::max(worst, r.critical_switches(c));
  }
  return worst;
}

std::size_t total_wirelength(const RouteResult& r) {
  std::size_t total = 0;
  for (const auto& s : r.context_summary) {
    total += s.wire_nodes_used;
  }
  return total;
}

constexpr std::uint64_t kFuzzSeeds[] = {11, 42, 97, 1234, 5150, 90210};

TEST(BucketEngine, DeterministicAcrossWorkerCounts) {
  const arch::RoutingGraph g(small_spec());
  for (const std::uint64_t seed : kFuzzSeeds) {
    const auto nets = random_route_problem(g, 18, seed);
    RouterOptions opts;
    opts.queue_mode = QueueMode::kBucket;
    opts.num_threads = 1;
    const RouteResult reference = Router(g, opts).route(nets);
    ASSERT_TRUE(reference.success) << "seed " << seed;
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4},
                                      std::size_t{0}}) {
      opts.num_threads = workers;
      const RouteResult got = Router(g, opts).route(nets);
      SCOPED_TRACE("seed " + std::to_string(seed) + " workers " +
                   std::to_string(workers));
      expect_same_routing(reference, got);
      // Counters describe the same expansion, so they must agree too.
      for (std::size_t c = 0; c < got.context_summary.size(); ++c) {
        EXPECT_EQ(got.context_summary[c].heap_pushes,
                  reference.context_summary[c].heap_pushes);
        EXPECT_EQ(got.context_summary[c].nodes_expanded,
                  reference.context_summary[c].nodes_expanded);
      }
    }
  }
}

TEST(BucketEngine, NeverWorseQoRUntimed) {
  // Lexicographic QoR (worst critical switches, then wirelength) over the
  // fuzz seeds: the bucket engine may tie-break differently but must not
  // finish worse.  Deterministic, so a regression here is a real one.
  const arch::RoutingGraph g(small_spec());
  for (const std::uint64_t seed : kFuzzSeeds) {
    const auto nets = random_route_problem(g, 18, seed);
    RouterOptions opts;
    const RouteResult binary = Router(g, opts).route(nets);
    opts.queue_mode = QueueMode::kBucket;
    const RouteResult bucket = Router(g, opts).route(nets);
    ASSERT_TRUE(binary.success) << "seed " << seed;
    ASSERT_TRUE(bucket.success) << "seed " << seed;
    const std::size_t ws_bin = worst_critical_switches(binary);
    const std::size_t ws_buk = worst_critical_switches(bucket);
    EXPECT_TRUE(ws_buk < ws_bin ||
                (ws_buk == ws_bin &&
                 total_wirelength(bucket) <= total_wirelength(binary)))
        << "seed " << seed << ": bucket (" << ws_buk << ", "
        << total_wirelength(bucket) << ") vs binary (" << ws_bin << ", "
        << total_wirelength(binary) << ")";
  }
}

TEST(BucketEngine, NeverWorseQoRTimedFlow) {
  // Same contract through the timing-driven compile flow: worst context
  // critical path first, then wirelength.
  const auto worst_path = [](const core::CompiledDesign& d) {
    double worst = 0.0;
    for (const auto& s : d.context_stats) {
      worst = std::max(worst, s.critical_path);
    }
    return worst;
  };
  const auto wirelength = [](const core::CompiledDesign& d) {
    std::size_t total = 0;
    for (const auto& s : d.context_stats) {
      total += s.wire_nodes_used;
    }
    return total;
  };
  for (const std::size_t stages : {std::size_t{6}, std::size_t{8}}) {
    const auto nl = workload::pipeline_workload(4, stages);
    core::CompileOptions opts;
    opts.placer.timing_mode = true;
    opts.router.timing_mode = true;
    const auto binary = core::compile(nl, small_spec(), opts);
    opts.router.queue_mode = QueueMode::kBucket;
    const auto bucket = core::compile(nl, small_spec(), opts);
    EXPECT_TRUE(worst_path(bucket) < worst_path(binary) ||
                (worst_path(bucket) == worst_path(binary) &&
                 wirelength(bucket) <= wirelength(binary)))
        << "pipeline(4," << stages << "): bucket (" << worst_path(bucket)
        << ", " << wirelength(bucket) << ") vs binary ("
        << worst_path(binary) << ", " << wirelength(binary) << ")";
  }
}

TEST(BucketEngine, BinaryHeapModeMatchesDefault) {
  // kBinaryHeap is the default and must be the pre-option engine:
  // spelling it explicitly, or routing through an external CorePool,
  // changes nothing.
  const arch::RoutingGraph g(small_spec());
  const auto nets = random_route_problem(g, 18, 7);
  const RouteResult implicit = Router(g, {}).route(nets);
  RouterOptions opts;
  opts.queue_mode = QueueMode::kBinaryHeap;
  const Router router(g, opts);
  expect_same_routing(implicit, router.route(nets));
  CorePool pool;
  expect_same_routing(implicit,
                      router.route(nets, nullptr, nullptr, nullptr, &pool));
  // A warm pool (second route over the same cores) stays identical too.
  expect_same_routing(implicit,
                      router.route(nets, nullptr, nullptr, nullptr, &pool));
}

TEST(BucketEngine, DerivedQuantumNeverExceedsSmallestIncrement) {
  // Dial's exactness argument needs quantum <= every relaxation increment.
  // An increment is cong_scale * node_cost + delay_term: node_cost >= 0.5
  // (the pin base cost) and, timing-driven, cong_scale = 1 - crit and
  // delay_term = crit * se_delay for crit in [0, max_criticality].
  // Untimed passes (timing off, or no spec) add the node cost alone.
  for (const double se_delay : {0.0, 0.25, 1.0, 4.0}) {
    timing::ContextTimingSpec spec;
    spec.se_delay = se_delay;
    for (const bool timed : {false, true}) {
      RouterOptions opts;
      opts.timing_mode = timed;
      const double q = bucket_quantum_for(opts, &spec);
      SCOPED_TRACE("se_delay " + std::to_string(se_delay) + " timed " +
                   std::to_string(timed));
      EXPECT_GT(q, 0.0);
      if (!timed) {
        EXPECT_EQ(q, 0.5);
        continue;
      }
      for (int step = 0; step <= 99; ++step) {
        const double crit =
            std::min(opts.max_criticality, static_cast<double>(step) / 100.0);
        for (const double node_cost : {0.5, 1.0, 3.5}) {
          EXPECT_LE(q, (1.0 - crit) * node_cost + crit * se_delay)
              << "crit " << crit << " node cost " << node_cost;
        }
      }
      // The bound is tight: the cheapest increment at max criticality.
      const double c = opts.max_criticality;
      EXPECT_EQ(q, std::min(0.5, (1.0 - c) * 0.5 + c * se_delay));
    }
  }
  // At the default delays the quantum is the historical 0.5 either way,
  // so kBucket routing (and its pinned smoke counters) does not move.
  RouterOptions timed;
  timed.timing_mode = true;
  const timing::ContextTimingSpec default_spec;
  EXPECT_EQ(bucket_quantum_for(timed, &default_spec), 0.5);
  EXPECT_EQ(bucket_quantum_for(timed, nullptr), 0.5);
  EXPECT_EQ(bucket_quantum_for(RouterOptions{}, &default_spec), 0.5);
}

// --- CalendarQueue fuzz: span boundaries, rebase cycles, FIFO --------------

/// Reference model of the queue's contract, used as the fuzz oracle:
/// priority = quantized cost clamped to the monotone floor (the priority
/// of the most recent pop), minimum priority pops first, FIFO within a
/// priority.  O(n) pops — fine at test sizes.
class ReferenceCalendar {
 public:
  explicit ReferenceCalendar(double quantum) : inv_quantum_(1.0 / quantum) {}

  void push(double cost, arch::NodeId value) {
    // Same expression as CalendarQueue::quantize, so the model cannot
    // disagree with the queue over floating-point rounding.
    std::uint64_t q =
        cost > 0.0 ? static_cast<std::uint64_t>(cost * inv_quantum_) : 0;
    q = std::max(q, floor_);
    items_.push_back(Entry{q, seq_++, value});
  }

  bool empty() const { return items_.empty(); }

  arch::NodeId pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].prio < items_[best].prio ||
          (items_[i].prio == items_[best].prio &&
           items_[i].seq < items_[best].seq)) {
        best = i;
      }
    }
    floor_ = items_[best].prio;
    const arch::NodeId value = items_[best].value;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(best));
    return value;
  }

 private:
  struct Entry {
    std::uint64_t prio;
    std::uint64_t seq;
    arch::NodeId value;
  };
  double inv_quantum_;
  std::uint64_t floor_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Entry> items_;
};

TEST(BucketQueue, ItemsExactlyAtBucketSpanOverflow) {
  // quantum 0.5, span 4: quantized cost 3 is the last calendar bucket,
  // quantized cost 4 (== span, cost 2.0 exactly) must take the overflow
  // list and come back via rebase — in push order and after everything
  // the calendar held.
  BucketQueue q;
  q.configure(0.5, 4);
  q.push(2.0, 1);    // q=4: exactly at span -> overflow
  q.push(1.999, 2);  // q=3: last calendar bucket
  q.push(0.0, 3);    // q=0
  q.push(2.0, 4);    // q=4: overflow, after 1
  q.push(3.7, 5);    // q=7: overflow
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3, 2, 1, 4, 5}));
}

TEST(BucketQueue, ZeroCostSeedsAfterRebaseClampToTheFloor) {
  // After a rebase onto a far-away overflow cost, zero-cost pushes (the
  // committed-tree seeds of the next expansion) must clamp to the new
  // floor instead of filing behind the pop cursor — and stay FIFO both
  // among themselves and against later same-bucket pushes.
  BucketQueue q;
  q.configure(0.5, 4);
  q.push(10.0, 1);  // q=20: overflow
  q.push(0.1, 2);   // q=0
  EXPECT_EQ(q.pop().value, 2);
  EXPECT_EQ(q.pop().value, 1);  // calendar drained -> rebase to base 20
  q.push(0.0, 3);               // clamps to the floor (q=20)
  q.push(0.0, 4);
  q.push(0.2, 5);  // also clamps
  q.push(10.3, 6);  // q=20 naturally: same bucket, FIFO after the clamps
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3, 4, 5, 6}));
}

TEST(BucketQueue, RepeatedDrainRebaseCyclesStayFifo) {
  // Maze expansion waves: each round's costs live far beyond the span,
  // forcing one rebase per round; order within and across rounds must
  // stay (quantized cost, push order).
  BucketQueue q;
  q.configure(0.5, 4);
  arch::NodeId id = 0;
  for (int round = 0; round < 5; ++round) {
    const double base_cost = 10.0 * (round + 1);
    std::vector<arch::NodeId> want;
    q.push(base_cost + 0.6, id);  // second bucket of the round
    const arch::NodeId late = id++;
    for (int i = 0; i < 3; ++i) {
      q.push(base_cost, id);  // three FIFO ties in the round's first bucket
      want.push_back(id++);
    }
    want.push_back(late);
    std::vector<arch::NodeId> got;
    for (std::size_t i = 0; i < want.size(); ++i) {
      got.push_back(q.pop().value);
    }
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(q.empty());
  }
}

TEST(BucketQueue, FuzzMatchesReferenceModel) {
  // Random interleavings of pushes (costs spanning several calendar
  // windows, so overflow and rebase fire constantly) and pops, checked
  // item-by-item against the reference model.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    BucketQueue q;
    q.configure(0.5, 8);  // tiny span: quantized costs reach 4x past it
    ReferenceCalendar ref(0.5);
    arch::NodeId next_value = 0;
    for (int op = 0; op < 2000; ++op) {
      if (q.empty() || rng.next_double() < 0.6) {
        // Mix boundary-exact costs (multiples of the quantum, including
        // exactly span * quantum) with arbitrary ones and zero seeds.
        double cost = 0.0;
        switch (rng.next_below(3)) {
          case 0:
            cost = 0.5 * static_cast<double>(rng.next_below(33));
            break;
          case 1:
            cost = 16.0 * rng.next_double();
            break;
          default:
            cost = 0.0;
            break;
        }
        q.push(cost, next_value);
        ref.push(cost, next_value);
        ++next_value;
      } else {
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(q.pop().value, ref.pop()) << "seed " << seed;
      }
    }
    while (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      EXPECT_EQ(q.pop().value, ref.pop()) << "seed " << seed;
    }
    EXPECT_TRUE(ref.empty());
  }
}

// --- CorePool checkout hardening -----------------------------------------

TEST(CorePool, CheckoutGuardsAgainstConcurrentClaims) {
  const arch::RoutingGraph g(small_spec());
  CorePool pool;
  pool.prepare(2, g, RouterOptions{});

  RouterCore& a = pool.checkout(0);
  EXPECT_EQ(&a, &pool.core(0));
  // Double checkout of a claimed slot is a programming error, not a
  // silent aliasing of one engine's scratch across two workers.
  EXPECT_THROW(pool.checkout(0), ProgrammingError);
  // The other slot is independent.
  EXPECT_NO_THROW(pool.checkout(1));
  pool.release(1);

  // Rebuilding the pool under a live checkout would pull the engine out
  // from under its worker.
  EXPECT_THROW(pool.prepare(2, g, RouterOptions{}), ProgrammingError);

  pool.release(0);
  // Released slots can be claimed again, and pay-as-you-go mismatches
  // are caught: releasing an idle slot or touching an unprepared one.
  EXPECT_NO_THROW(pool.checkout(0));
  pool.release(0);
  EXPECT_THROW(pool.release(0), ProgrammingError);
  EXPECT_THROW(pool.checkout(7), ProgrammingError);
  EXPECT_THROW(pool.release(7), ProgrammingError);

  // With every slot idle, prepare() may rebuild freely.
  EXPECT_NO_THROW(pool.prepare(3, g, RouterOptions{}));
}

}  // namespace
}  // namespace mcfpga::route
