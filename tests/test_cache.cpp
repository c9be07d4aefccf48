// Tests for the content-addressed design cache and the delta-recompile
// driver (src/cache/): cache-enabled compiles are bit-identical to
// uncached ones (cold and warm, across timing modes and closure), each
// compile is one lookup and a hit one observer step, cache hits are
// shared across worker counts, the LRU bounds hold, pattern interning
// refcounts compose with eviction, concurrent hits restore correctly while
// evictions land mid-restore, every input field is keyed, and delta
// recompiles of edited netlists stay functionally correct with
// full-recompile QoR while storing nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/routing_graph.hpp"
#include "cache/incremental.hpp"
#include "cache/key.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "core/flow.hpp"
#include "core/stages.hpp"
#include "netlist/eval.hpp"
#include "sim/simulator.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"
#include "workload/random_dfg.hpp"

#include "field_flips.hpp"

namespace mcfpga::cache {
namespace {

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

netlist::MultiContextNetlist four_context_workload(std::size_t width = 8) {
  return workload::pipeline_workload(4, width);
}

/// Four contexts with NO cross-context sharing: editing one context's
/// logic cannot split a shared class, so a single-context edit leaves the
/// clustering of every other context untouched.
netlist::MultiContextNetlist unshared_workload() {
  workload::RandomMultiContextParams params;
  params.base.num_inputs = 6;
  params.base.num_nodes = 16;
  params.base.max_arity = 3;
  params.base.seed = 77;
  params.share_fraction = 0.0;
  return workload::random_multi_context(params);
}

void expect_same_design(const core::CompiledDesign& a,
                        const core::CompiledDesign& b) {
  EXPECT_EQ(a.placement.cluster_pos, b.placement.cluster_pos);
  EXPECT_EQ(a.placement.io_pads, b.placement.io_pads);
  ASSERT_EQ(a.routing.success, b.routing.success);
  ASSERT_EQ(a.routing.nets.size(), b.routing.nets.size());
  for (std::size_t c = 0; c < a.routing.nets.size(); ++c) {
    ASSERT_EQ(a.routing.nets[c].size(), b.routing.nets[c].size());
    for (std::size_t i = 0; i < a.routing.nets[c].size(); ++i) {
      const auto& na = a.routing.nets[c][i];
      const auto& nb = b.routing.nets[c][i];
      EXPECT_EQ(na.source, nb.source);
      ASSERT_EQ(na.paths.size(), nb.paths.size());
      for (std::size_t p = 0; p < na.paths.size(); ++p) {
        EXPECT_EQ(na.paths[p].sink, nb.paths[p].sink);
        EXPECT_EQ(na.paths[p].edges, nb.paths[p].edges);
      }
    }
  }
  ASSERT_EQ(a.routing.switch_patterns.size(), b.routing.switch_patterns.size());
  for (std::size_t s = 0; s < a.routing.switch_patterns.size(); ++s) {
    EXPECT_EQ(a.routing.switch_patterns[s], b.routing.switch_patterns[s]);
  }
  ASSERT_EQ(a.context_stats.size(), b.context_stats.size());
  for (std::size_t c = 0; c < a.context_stats.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.context_stats[c].critical_path,
                     b.context_stats[c].critical_path);
    EXPECT_EQ(a.context_stats[c].wire_nodes_used,
              b.context_stats[c].wire_nodes_used);
  }
  EXPECT_EQ(config::to_text(a.full_bitstream), config::to_text(b.full_bitstream));
}

/// Simulates the programmed fabric against netlist::evaluate on `source`.
void expect_functionally_correct(const core::CompiledDesign& design,
                                 const netlist::MultiContextNetlist& source) {
  arch::RoutingGraph graph(design.fabric);
  const sim::FabricSimulator simulator(graph, design.program);
  Rng rng(123);
  for (std::size_t c = 0; c < source.num_contexts(); ++c) {
    const netlist::Dfg& dfg = source.context(c);
    for (std::size_t v = 0; v < 8; ++v) {
      netlist::ValueMap inputs;
      for (const auto& node : dfg.nodes()) {
        if (node.type == netlist::NodeType::kPrimaryInput) {
          inputs[node.name] = rng.next_bool();
        }
      }
      const netlist::ValueMap expected = netlist::evaluate(dfg, inputs);
      const netlist::ValueMap actual = simulator.eval(c, inputs);
      for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << "missing output " << name;
        EXPECT_EQ(it->second, value)
            << "context " << c << " output " << name;
      }
    }
  }
}

double worst_critical_path(const core::CompiledDesign& design) {
  double worst = 0.0;
  for (const auto& s : design.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

std::size_t total_wirelength(const core::CompiledDesign& design) {
  std::size_t total = 0;
  for (const auto& s : design.context_stats) {
    total += s.wire_nodes_used;
  }
  return total;
}

/// First LUT-op node index of context 0 with at least `min_index` nodes
/// before it (so rewire edits have retarget candidates).
std::size_t pick_lut_node(const netlist::MultiContextNetlist& nl,
                          std::size_t min_index = 2) {
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = min_index; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
        netlist::NodeType::kLutOp) {
      return i;
    }
  }
  ADD_FAILURE() << "workload has no LUT node";
  return 0;
}

/// The front end (tech map through clustering) of `nl`, plus the fabric
/// sizing the place stage would apply.
core::FlowContext front_end(const netlist::MultiContextNetlist& nl,
                            const arch::FabricSpec& spec,
                            const core::CompileOptions& opts) {
  core::FlowContext ctx = core::make_flow_context(nl, spec, opts);
  const auto& pipeline = core::default_pipeline();
  core::run_pipeline(ctx, std::vector<const core::Stage*>(
                              pipeline.begin(), pipeline.begin() + 4));
  core::size_fabric_and_build_graph(ctx);
  return ctx;
}

/// The placement-problem hash the delta path computes for `nl`: the same
/// function over the problem PlaceStage would anneal on the same front end.
std::uint64_t annealed_problem_hash(const netlist::MultiContextNetlist& nl,
                                    const arch::FabricSpec& spec,
                                    const core::CompileOptions& opts) {
  core::FlowContext ctx = front_end(nl, spec, opts);
  return core::hash_placement_problem(
      core::annealed_placement_problem(ctx).problem);
}

/// First rewire of `nl` (nodes from pick_lut_node upward, seeds 1..16)
/// whose front end satisfies `wanted` and still fits `base`'s fabric.
template <class Wanted>
netlist::MultiContextNetlist find_rewire(const netlist::MultiContextNetlist& nl,
                                         const arch::FabricSpec& spec,
                                         const core::CompileOptions& opts,
                                         const core::CompiledDesign& base,
                                         Wanted&& wanted) {
  for (std::size_t node = pick_lut_node(nl);
       node < nl.context(0).num_nodes(); ++node) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      auto edited = workload::rewire_edit(nl, node, seed);
      const core::FlowContext ctx = front_end(edited, spec, opts);
      if (ctx.spec.width == base.fabric.width &&
          ctx.spec.height == base.fabric.height && wanted(ctx)) {
        return edited;
      }
    }
  }
  ADD_FAILURE() << "no rewire of the workload has the wanted shape";
  return nl;
}

/// Sorted (context, node name) members of each cluster's sharing classes
/// — the identity ECO placement matches clusters by.
std::vector<std::vector<std::pair<std::size_t, std::string>>>
cluster_members(const core::CompiledDesign& d) {
  std::vector<std::vector<std::pair<std::size_t, std::string>>> out(
      d.clusters.size());
  for (std::size_t k = 0; k < d.clusters.size(); ++k) {
    for (const std::size_t s : d.clusters[k].slots) {
      for (const auto& e : d.planes.slots[s].entries) {
        for (const auto& [c, node] : d.sharing.classes[e.use.cls].members) {
          out[k].emplace_back(c, d.netlist.context(c).node(node).name);
        }
      }
    }
    std::sort(out[k].begin(), out[k].end());
  }
  return out;
}

/// A full ProgramStage run over `d`'s own placement and routing.
std::string full_program_text(const core::CompiledDesign& d,
                              const netlist::MultiContextNetlist& nl,
                              const arch::FabricSpec& spec,
                              const core::CompileOptions& opts) {
  core::FlowContext ctx = front_end(nl, spec, opts);
  ctx.placement = d.placement;
  ctx.routing = d.routing;
  core::ProgramStage().run(ctx);
  return config::to_text(ctx.full_bitstream);
}

std::vector<core::CompileOptions> config_matrix() {
  std::vector<core::CompileOptions> matrix;
  core::CompileOptions base;
  matrix.push_back(base);
  core::CompileOptions placer_timing = base;
  placer_timing.placer.timing_mode = true;
  matrix.push_back(placer_timing);
  core::CompileOptions router_timing = base;
  router_timing.router.timing_mode = true;
  matrix.push_back(router_timing);
  core::CompileOptions both = placer_timing;
  both.router.timing_mode = true;
  matrix.push_back(both);
  core::CompileOptions closure = both;
  closure.closure_iterations = 3;
  matrix.push_back(closure);
  return matrix;
}

// --- cold/warm bit-identity -------------------------------------------------

TEST(StageCache, ColdAndWarmCompilesMatchUncachedBitForBit) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  for (const auto& opts : config_matrix()) {
    const core::CompiledDesign plain = core::compile(nl, spec, opts);

    CompileService service;
    const Compiled cold = service.compile(nl, spec, opts);
    expect_same_design(plain, cold.design);
    EXPECT_EQ(cold.design.cache.hits, 0u);
    EXPECT_EQ(cold.design.cache.misses, 1u);

    const Compiled warm = service.compile(nl, spec, opts);
    expect_same_design(plain, warm.design);
    EXPECT_EQ(warm.design.cache.misses, 0u)
        << "closure=" << opts.closure_iterations;
    EXPECT_EQ(warm.design.cache.hits, 1u);
    EXPECT_EQ(warm.placement_problem_hash, cold.placement_problem_hash);
    // The stored hash is the one PlaceStage kept, and it equals the hash
    // the delta path computes for the same netlist.
    EXPECT_EQ(cold.placement_problem_hash,
              annealed_problem_hash(nl, spec, opts))
        << "closure=" << opts.closure_iterations;
  }
}

TEST(StageCache, HitsAreSharedAcrossWorkerCounts) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;

  core::CompileOptions serial;
  serial.placer.num_threads = 1;
  serial.router.num_threads = 1;
  const Compiled cold = service.compile(nl, spec, serial);

  core::CompileOptions parallel = serial;
  parallel.placer.num_threads = 4;
  parallel.router.num_threads = 4;
  const Compiled warm = service.compile(nl, spec, parallel);
  // Worker counts never change results, so they are excluded from the
  // content keys: the parallel compile is a pure replay.
  EXPECT_EQ(warm.design.cache.hits, 1u);
  EXPECT_EQ(warm.design.cache.misses, 0u);
  expect_same_design(cold.design, warm.design);
}

// --- cheap hits --------------------------------------------------------------

/// Records the steps a compile reports; optionally refuses to start one.
class StepLog final : public core::StageObserver {
 public:
  bool on_stage_start(const char* stage) override {
    started.emplace_back(stage);
    return !cancel;
  }
  void on_stage_done(const char* stage, double /*seconds*/) override {
    done.emplace_back(stage);
  }

  bool cancel = false;
  std::vector<std::string> started;
  std::vector<std::string> done;
};

std::vector<std::string> timing_names(const core::CompiledDesign& d) {
  std::vector<std::string> names;
  for (const core::StageTiming& t : d.stage_timings) {
    if (t.name.find('.') == std::string::npos) {  // skip sub-timings
      names.push_back(t.name);
    }
  }
  return names;
}

TEST(StageCache, AHitIsOneCacheStepAndAMissThePipelinesStages) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const std::vector<std::string> stages = {
      "tech_map", "sharing", "plane_alloc", "cluster",
      "place",    "route",   "timing",      "program"};

  StepLog cold_log;
  const Compiled cold = service.compile(nl, spec, {}, &cold_log);
  // The lookup's step is abandoned on a miss: no done, no timing entry.
  EXPECT_EQ(cold_log.done, stages);
  EXPECT_EQ(timing_names(cold.design), stages);

  StepLog warm_log;
  const Compiled warm = service.compile(nl, spec, {}, &warm_log);
  const std::vector<std::string> cache_step = {"cache"};
  EXPECT_EQ(warm_log.started, cache_step);
  EXPECT_EQ(warm_log.done, cache_step);
  EXPECT_EQ(timing_names(warm.design), cache_step);

  // The step is the hit's cancellation point.
  StepLog refuse;
  refuse.cancel = true;
  EXPECT_THROW(service.compile(nl, spec, {}, &refuse), FlowCancelled);
  EXPECT_TRUE(refuse.done.empty());
}

TEST(StageCache, FullHitRunsNoStageAndSharesBitstreamRows) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const Compiled cold = service.compile(nl, spec);
  const Compiled first = service.compile(nl, spec);
  const Compiled second = service.compile(nl, spec);
  EXPECT_EQ(first.design.cache.hits, 1u);
  EXPECT_EQ(first.design.cache.misses, 0u);
  EXPECT_EQ(first.design.fabric.width, cold.design.fabric.width);
  EXPECT_EQ(first.design.fabric.height, cold.design.fabric.height);
  // Both hits hand out the stored design's one bitstream: no row copy.
  // The store copied no row either: the hits share the cold rows.
  EXPECT_TRUE(first.design.full_bitstream.shares_rows_with(
      second.design.full_bitstream));
  EXPECT_TRUE(first.design.full_bitstream.shares_rows_with(
      cold.design.full_bitstream));
  EXPECT_EQ(config::to_text(first.design.full_bitstream),
            config::to_text(cold.design.full_bitstream));
  EXPECT_EQ(first.design.program.switch_patterns,
            cold.design.program.switch_patterns);
}

/// Placement, routing and bitstream of a design, as one comparable string.
std::string fingerprint(const core::CompiledDesign& d) {
  std::ostringstream os;
  for (const auto& [x, y] : d.placement.cluster_pos) {
    os << x << ',' << y << ' ';
  }
  for (const std::size_t pad : d.placement.io_pads) {
    os << pad << ' ';
  }
  for (const auto& nets : d.routing.nets) {
    for (const auto& net : nets) {
      for (const auto& path : net.paths) {
        for (const auto e : path.edges) {
          os << e << ' ';
        }
      }
    }
  }
  os << '\n' << config::to_text(d.full_bitstream);
  return os.str();
}

TEST(StageCache, ConcurrentHitsSurviveEvictionsMidRestore) {
  // Four threads repeat three warmed designs while a fifth publishes fresh
  // ones into a cache that holds one design, so entries are evicted while
  // other threads restore from them.  Every result must equal a
  // serial, uncached compile bit for bit.
  const auto spec = small_spec();
  core::CompileOptions opts;
  opts.placer.num_threads = 1;
  opts.router.num_threads = 1;
  const std::vector<netlist::MultiContextNetlist> warm = {
      four_context_workload(6), four_context_workload(8), unshared_workload()};
  std::vector<netlist::MultiContextNetlist> fresh;
  for (const std::size_t width : {5u, 7u, 9u, 10u}) {
    fresh.push_back(four_context_workload(width));
  }
  std::vector<std::string> want_warm;
  for (const auto& nl : warm) {
    want_warm.push_back(fingerprint(core::compile(nl, spec, opts)));
  }
  std::vector<std::string> want_fresh;
  for (const auto& nl : fresh) {
    want_fresh.push_back(fingerprint(core::compile(nl, spec, opts)));
  }

  IncrementalOptions tiny;
  tiny.limits.max_entries = 1;
  CompileService service(tiny);
  for (const auto& nl : warm) {
    service.compile(nl, spec, opts);
  }

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kRepeats = 4;
  std::vector<std::vector<std::string>> got(kReaders);
  std::vector<std::string> published(fresh.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < kRepeats; ++r) {
          const auto& nl = warm[(t + r) % warm.size()];
          got[t].push_back(
              fingerprint(service.compile(nl, spec, opts).design));
        }
      });
    }
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        published[i] =
            fingerprint(service.compile(fresh[i], spec, opts).design);
      }
    });
  }
  for (std::size_t t = 0; t < kReaders; ++t) {
    ASSERT_EQ(got[t].size(), kRepeats);
    for (std::size_t r = 0; r < kRepeats; ++r) {
      EXPECT_EQ(got[t][r], want_warm[(t + r) % warm.size()])
          << "reader " << t << " repeat " << r;
    }
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(published[i], want_fresh[i]) << "fresh design " << i;
  }
  EXPECT_GT(service.artifacts().counters().evictions, 0u);
  EXPECT_LE(service.artifacts().num_entries(), 1u);
}

TEST(StageCache, ConcurrentRepeatsCountOnlyTheirOwnLookups) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  service.compile(nl, spec);
  std::vector<Compiled> repeats(2);
  {
    std::jthread a([&] { repeats[0] = service.compile(nl, spec); });
    std::jthread b([&] { repeats[1] = service.compile(nl, spec); });
  }
  for (const Compiled& c : repeats) {
    EXPECT_EQ(c.design.cache.hits, 1u);
    EXPECT_EQ(c.design.cache.misses, 0u);
  }
}

// --- cache bounds -----------------------------------------------------------

TEST(StageCache, LruEvictionHoldsEntryBound) {
  // Room for two designs but not three: the bound holds throughout, the
  // least recently used design goes, and the freshest stays resident.
  IncrementalOptions options;
  options.limits.max_entries = 2;
  CompileService service(options);
  const auto spec = small_spec();
  for (const std::size_t width : {6u, 8u, 10u}) {
    service.compile(four_context_workload(width), spec);
    EXPECT_LE(service.artifacts().num_entries(), 2u);
  }
  EXPECT_EQ(service.artifacts().counters().evictions, 1u);
  const Compiled warm = service.compile(four_context_workload(10), spec);
  EXPECT_EQ(warm.design.cache.hits, 1u);
  const Compiled evicted = service.compile(four_context_workload(6), spec);
  EXPECT_EQ(evicted.design.cache.misses, 1u);
}

TEST(StageCache, ByteBoundNeverEvictsTheSoleEntry) {
  IncrementalOptions options;
  options.limits.max_bytes = 1;  // every design is over budget
  CompileService service(options);
  const auto spec = small_spec();
  service.compile(four_context_workload(), spec);
  service.compile(four_context_workload(10), spec);
  EXPECT_EQ(service.artifacts().num_entries(), 1u);
  EXPECT_EQ(service.artifacts().counters().evictions, 1u);
  const Compiled warm = service.compile(four_context_workload(10), spec);
  EXPECT_EQ(warm.design.cache.hits, 1u);
  EXPECT_EQ(service.artifacts().num_entries(), 1u);
}

// --- content keys -----------------------------------------------------------

TEST(CacheKeys, DistinguishInputs) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const core::CompileOptions opts;
  const auto base = flow_base_key(nl, spec, opts);
  EXPECT_EQ(base, flow_base_key(four_context_workload(), spec, opts));
  EXPECT_NE(base, flow_base_key(four_context_workload(10), spec, opts));
  EXPECT_NE(base, flow_base_key(
                      workload::retable_edit(nl, pick_lut_node(nl), 5), spec,
                      opts));
}

/// The flow key is the only identity a cached design has, so flipping any
/// single listed field of the fabric spec or the compile options must
/// change it.  Only the worker counts, which never change a result, leave
/// it alone.
TEST(CacheKeys, EveryFieldButTheWorkerCountsChangesTheKey) {
  const auto nl = four_context_workload();
  const arch::FabricSpec spec = small_spec();
  const core::CompileOptions opts;
  const std::uint64_t base = flow_base_key(nl, spec, opts);

  std::size_t keyed = 0;
  std::size_t neutral = 0;
  fieldtest::for_each_field_flip(
      spec, opts, [&](const fieldtest::FieldFlip& flip) {
        const std::uint64_t key = flow_base_key(nl, flip.spec, flip.options);
        if (flip.effect == core::Effect::kNeutral) {
          ++neutral;
          EXPECT_EQ(key, base) << flip.name;
        } else {
          ++keyed;
          EXPECT_NE(key, base) << flip.name;
        }
      });
  // 10 FabricSpec fields and 20 CompileOptions values, two of them the
  // worker counts.
  EXPECT_EQ(keyed, 28u);
  EXPECT_EQ(neutral, 2u);

  core::CompileOptions threaded = opts;
  threaded.placer.num_threads = 8;
  threaded.router.num_threads = 8;
  EXPECT_EQ(flow_base_key(nl, spec, threaded), base);
}

// --- delta recompile --------------------------------------------------------

TEST(DeltaRecompile, ZeroEditIsAPureReplay) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);
  const Compiled again = service.compile_incremental(base, nl, opts);
  EXPECT_FALSE(again.design.cache.delta);
  EXPECT_TRUE(again.design.cache.delta_fallback.empty());
  EXPECT_EQ(again.design.cache.hits, 1u);
  EXPECT_EQ(again.design.cache.misses, 0u);
  expect_same_design(base.design, again.design);
}

TEST(DeltaRecompile, RetableEditMatchesFullRecompileBitForBit) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_EQ(inc.design.cache.nets_invalidated, 0u);
  EXPECT_GT(inc.design.cache.anneal_moves_saved, 0u);

  // A truth-table edit leaves the placement problem and every physical
  // net unchanged, so the delta design must equal a from-scratch compile
  // of the edited netlist bit for bit.
  const core::CompiledDesign full = core::compile(edited, spec, opts);
  expect_same_design(full, inc.design);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, RetableDeltaStoresNothing) {
  // The delta path's design is not a full-pipeline result: its front end
  // runs uncached, and nothing of it is looked up or stored.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);
  const FlowCache::Stats before = service.flow_cache().stats();

  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_EQ(inc.design.cache.hits, 0u);
  EXPECT_EQ(inc.design.cache.misses, 0u);
  const FlowCache::Stats after = service.flow_cache().stats();
  EXPECT_EQ(after.counters.hits, before.counters.hits);
  EXPECT_EQ(after.counters.misses, before.counters.misses);
  EXPECT_EQ(after.counters.stores, before.counters.stores);
  EXPECT_EQ(service.artifacts().num_entries(), 1u);

  // A full compile of the edited netlist therefore misses.
  const Compiled full = service.compile(edited, spec, opts);
  EXPECT_EQ(full.design.cache.misses, 1u);
}

TEST(DeltaRecompile, OptionChangeFallsBackToFullCompile) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  auto reseeded = opts;
  reseeded.seed = 99;
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, reseeded);
  EXPECT_FALSE(inc.design.cache.delta);
  EXPECT_EQ(inc.design.cache.delta_fallback, "compile options changed");
  EXPECT_TRUE(inc.design.routing.success);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, WorkerCountChangeKeepsTheDeltaPath) {
  // The options check compares every listed field by value except the
  // worker counts, which never change a result.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  core::CompileOptions threaded = opts;
  threaded.placer.num_threads = 3;
  threaded.router.num_threads = 2;
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, threaded);
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  expect_same_design(core::compile(edited, spec, opts), inc.design);
}

TEST(DeltaRecompile, EveryKeyedOptionFlipFallsBack) {
  // Walking the field list: each single keyed option change falls back
  // with this exact reason (perfbench counts fallbacks by it).  A flip
  // may leave the options invalid or the design unplaceable, so the
  // fallback's own compile may throw; the reason is counted before it
  // runs.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);

  std::size_t flips = 0;
  fieldtest::for_each_field_flip(
      spec, opts, [&](const fieldtest::FieldFlip& flip) {
        if (flip.spec != spec || flip.effect == core::Effect::kNeutral) {
          return;
        }
        ++flips;
        try {
          const Compiled inc =
              service.compile_incremental(base, edited, flip.options);
          EXPECT_FALSE(inc.design.cache.delta) << flip.name;
          EXPECT_EQ(inc.design.cache.delta_fallback,
                    "compile options changed")
              << flip.name;
        } catch (const InvalidArgument&) {
          // An invalid flip: an exponent start above its ceiling.
        } catch (const FlowError&) {
          // auto_size off on a fabric the design outgrows.
        }
        const auto reasons = service.fallback_reasons();
        ASSERT_EQ(reasons.size(), 1u) << flip.name;
        EXPECT_EQ(reasons.at("compile options changed"), flips) << flip.name;
      });
  EXPECT_EQ(flips, 18u);
}

TEST(DeltaRecompile, StoredProblemHashIsTheOneTheDeltaPathComputes) {
  // PlaceStage keeps the hash of the problem it anneals and a compile
  // stores it; the delta path hashes its own build of that problem with
  // the same function.  A retable edit leaves the problem unchanged, so
  // the hashes agree and the delta path reuses the placement verbatim.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  core::CompileOptions untimed;
  core::CompileOptions timed;
  timed.placer.timing_mode = true;
  core::CompileOptions closure = timed;
  closure.closure_iterations = 2;
  for (const core::CompileOptions& opts : {untimed, timed, closure}) {
    CompileService service;
    const Compiled base = service.compile(nl, spec, opts);
    const Compiled full = service.compile(edited, spec, opts);
    ASSERT_EQ(full.design.cache.misses, 1u);
    EXPECT_EQ(full.placement_problem_hash, base.placement_problem_hash);
    EXPECT_EQ(full.placement_problem_hash,
              annealed_problem_hash(edited, spec, opts));

    const Compiled inc = service.compile_incremental(base, edited, opts);
    EXPECT_EQ(inc.placement_problem_hash, full.placement_problem_hash);
    if (opts.closure_iterations >= 2) {
      // Closure flows take the full pipeline (here: the stored design).
      EXPECT_EQ(inc.design.cache.delta_fallback, "closure loop requested");
      continue;
    }
    ASSERT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
    EXPECT_EQ(inc.design.placement.cluster_pos,
              base.design.placement.cluster_pos);
    EXPECT_EQ(inc.design.placement.io_pads, base.design.placement.io_pads);
    EXPECT_EQ(inc.design.cache.nets_invalidated, 0u);
    expect_same_design(full.design, inc.design);
  }
}

TEST(DeltaRecompile, RandomEditSequencesStayCorrectWithFullQoR) {
  const auto spec = small_spec();
  CompileService service;
  core::CompileOptions opts;
  netlist::MultiContextNetlist current = four_context_workload();
  Compiled compiled = service.compile(current, spec, opts);

  Rng rng(9);
  std::size_t deltas_taken = 0;
  constexpr std::size_t kSteps = 6;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::size_t node = pick_lut_node(current) +
                             rng.next_below(3);
    const auto edited =
        step % 2 == 0 ? workload::retable_edit(current, node, step + 11)
                      : workload::rewire_edit(current, node, step + 11);
    const Compiled next = service.compile_incremental(compiled, edited, opts);
    ASSERT_TRUE(next.design.routing.success) << "step " << step;
    expect_functionally_correct(next.design, edited);
    EXPECT_TRUE(next.design.cache.delta)
        << "step " << step << ": " << next.design.cache.delta_fallback;
    if (next.design.cache.delta) {
      ++deltas_taken;
      // QoR guard: the delta design must match a full recompile of the
      // same netlist to within a small factor on both timing and wire.
      const core::CompiledDesign full = core::compile(edited, spec, opts);
      EXPECT_LE(worst_critical_path(next.design),
                worst_critical_path(full) * 1.5 + 1.0)
          << "step " << step;
      EXPECT_LE(total_wirelength(next.design),
                static_cast<std::size_t>(
                    static_cast<double>(total_wirelength(full)) * 1.5) + 8)
          << "step " << step;
    }
    compiled = std::move(next);
    current = edited;
  }
  // ECO placement carries every retable and rewire of the sequence.
  EXPECT_EQ(deltas_taken, kSteps);
}

TEST(DeltaRecompile, EcoRewireKeepsMatchedSitesAndPads) {
  // A rewire that changes the placement problem: every cluster whose
  // content survived keeps its site, every surviving terminal its pad,
  // and the nets whose endpoints moved are re-routed.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = workload::rewire_edit(nl, pick_lut_node(nl), 21);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_NE(inc.placement_problem_hash, base.placement_problem_hash);
  ASSERT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_GT(inc.design.cache.nets_rerouted, 0u);
  expect_functionally_correct(inc.design, edited);

  const auto was = cluster_members(base.design);
  const auto now = cluster_members(inc.design);
  std::size_t matched = 0;
  for (std::size_t k = 0; k < now.size(); ++k) {
    const auto it = std::find(was.begin(), was.end(), now[k]);
    if (it != was.end()) {
      ++matched;
      EXPECT_EQ(inc.design.placement.cluster_pos[k],
                base.design.placement.cluster_pos[static_cast<std::size_t>(
                    it - was.begin())])
          << "cluster " << k;
    }
  }
  EXPECT_GT(matched, 0u);
  const auto expect_kept_pads = [&](const auto& now_terms,
                                    const auto& was_terms) {
    for (const auto& [name, t] : now_terms) {
      const auto it = was_terms.find(name);
      if (it != was_terms.end()) {
        EXPECT_EQ(inc.design.placement.io_pads[t],
                  base.design.placement.io_pads[it->second])
            << "terminal " << name;
      }
    }
  };
  expect_kept_pads(inc.design.input_terminals, base.design.input_terminals);
  expect_kept_pads(inc.design.output_terminals, base.design.output_terminals);
}

TEST(DeltaRecompile, EcoRewireChangingClusterCountTakesDeltaPath) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = find_rewire(
      nl, spec, opts, base.design, [&](const core::FlowContext& ctx) {
        return ctx.clusters.size() != base.design.clusters.size();
      });
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_NE(inc.design.clusters.size(), base.design.clusters.size());
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_GT(inc.design.cache.program_rows_reused, 0u);
  EXPECT_EQ(config::to_text(inc.design.full_bitstream),
            full_program_text(inc.design, edited, spec, opts));
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, EcoRewireOrphaningAnInputTakesDeltaPath) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = find_rewire(
      nl, spec, opts, base.design, [&](const core::FlowContext& ctx) {
        for (const auto& [name, t] : base.design.input_terminals) {
          if (ctx.input_terminals.count(name) == 0) {
            return true;
          }
        }
        return false;
      });
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_LT(inc.design.input_terminals.size(),
            base.design.input_terminals.size());
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_EQ(config::to_text(inc.design.full_bitstream),
            full_program_text(inc.design, edited, spec, opts));
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, IncrementalProgramStageReusesRowsBitForBit) {
  // The delta path's incremental ProgramStage copies cached bitstream
  // rows for every switch and cluster the edit left alone, regenerating
  // only the touched resources — and the assembled bitstream must equal a
  // full recompile's bit for bit.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_TRUE(inc.design.cache.delta_fallback.empty());  // no full reprogram
  const core::CacheStats& cache = inc.design.cache;
  EXPECT_GT(cache.program_rows_reused, 0u);
  EXPECT_GT(cache.program_rows_reprogrammed, 0u);
  // Every row is accounted exactly once.
  EXPECT_EQ(cache.program_rows_reused + cache.program_rows_reprogrammed,
            inc.design.full_bitstream.num_rows());
  // A retable edit keeps the routing (all switch rows reuse) and touches
  // a handful of clusters, so reuse dominates.
  EXPECT_LT(cache.program_rows_reprogrammed, cache.program_rows_reused);

  const core::CompiledDesign full = core::compile(edited, spec, opts);
  EXPECT_EQ(config::to_text(full.full_bitstream),
            config::to_text(inc.design.full_bitstream));
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, InterleavedSingleContextEditTakesDeltaPath) {
  // Interleaved flows keep their delta path when the edit stays inside
  // one context: every other context's trees match verbatim, so the
  // bargain the waves struck survives the recompile.
  const auto nl = unshared_workload();
  const auto spec = small_spec();
  CompileService service;
  core::CompileOptions opts;
  opts.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  const Compiled base = service.compile(nl, spec, opts);

  netlist::MultiContextNetlist edited = nl;
  edited.context(0) =
      workload::retable_edit(nl, pick_lut_node(nl), 7).context(0);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_GT(inc.design.cache.program_rows_reused, 0u);

  // A truth-table edit keeps every physical net, so the delta design
  // equals a from-scratch interleaved compile bit for bit.
  const core::CompiledDesign full = core::compile(edited, spec, opts);
  expect_same_design(full, inc.design);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, InterleavedMultiContextEditFallsBack) {
  // An edit spanning contexts would silently drop the cross-context
  // bargain if the delta path re-routed without the interleaved pass, so
  // it takes the full pipeline with a dedicated fallback reason.
  const auto nl = unshared_workload();
  const auto spec = small_spec();
  CompileService service;
  core::CompileOptions opts;
  opts.router.cross_context_mode = route::CrossContextMode::kInterleaved;
  const Compiled base = service.compile(nl, spec, opts);

  // retable_edit rewrites the node in EVERY context it exists in.
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 7);
  const NetlistDiff diff = diff_netlists(nl, edited);
  std::size_t touched = 0;
  for (const std::size_t changed : diff.changed_per_context) {
    touched += changed > 0 ? 1 : 0;
  }
  ASSERT_GE(touched, 2u);

  const Compiled inc = service.compile_incremental(base, edited, opts);
  EXPECT_FALSE(inc.design.cache.delta);
  EXPECT_EQ(inc.design.cache.delta_fallback, "negotiated multi-context edit");
  EXPECT_TRUE(inc.design.routing.success);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, DeterministicForAnyWorkerCount) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const auto edited = workload::rewire_edit(nl, pick_lut_node(nl), 21);

  std::vector<core::CompiledDesign> designs;
  for (const std::size_t workers : {1u, 4u}) {
    core::CompileOptions opts;
    opts.placer.num_threads = workers;
    opts.router.num_threads = workers;
    CompileService service;
    const Compiled base = service.compile(nl, spec, opts);
    designs.push_back(
        service.compile_incremental(base, edited, opts).design);
  }
  expect_same_design(designs[0], designs[1]);
}

// --- graph slot -------------------------------------------------------------

TEST(GraphSlot, DeltaEditsOnOneFabricBuildOneGraph) {
  // The base compile builds the fabric's graph; four delta edits and a
  // fallback on the same fabric take it from the slot.
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  netlist::MultiContextNetlist current = four_context_workload();
  Compiled compiled = service.compile(current, spec, opts);
  EXPECT_EQ(service.graph_slot().builds(), 1u);
  for (std::size_t step = 0; step < 4; ++step) {
    const std::size_t node = pick_lut_node(current) + step;
    const auto edited =
        step % 2 == 0 ? workload::retable_edit(current, node, step + 11)
                      : workload::rewire_edit(current, node, step + 11);
    Compiled next = service.compile_incremental(compiled, edited, opts);
    ASSERT_TRUE(next.design.cache.delta)
        << "step " << step << ": " << next.design.cache.delta_fallback;
    expect_functionally_correct(next.design, edited);
    compiled = std::move(next);
    current = edited;
  }
  EXPECT_EQ(service.graph_slot().builds(), 1u);

  core::CompileOptions reseeded = opts;
  reseeded.seed = 99;
  const auto edited =
      workload::retable_edit(current, pick_lut_node(current), 5);
  const Compiled fallback =
      service.compile_incremental(compiled, edited, reseeded);
  ASSERT_EQ(fallback.design.cache.delta_fallback, "compile options changed");
  ASSERT_EQ(fallback.design.cache.misses, 1u);
  ASSERT_EQ(fallback.design.fabric, compiled.design.fabric);
  EXPECT_EQ(service.graph_slot().builds(), 1u);
  expect_same_design(core::compile(edited, spec, reseeded), fallback.design);
}

TEST(GraphSlot, EveryFlippedSpecFieldBuildsANewGraph) {
  // The slot compares whole specs, so no single-field change may reuse
  // the held graph: a valid flip builds its own graph, and an invalid one
  // throws instead of handing out the held graph.
  core::GraphSlot slot;
  const arch::FabricSpec spec = small_spec();
  std::size_t flips = 0;
  fieldtest::for_each_field_flip(
      spec, core::CompileOptions{}, [&](const fieldtest::FieldFlip& flip) {
        if (flip.spec == spec) {
          return;  // an options field
        }
        ++flips;
        const auto held = slot.acquire(spec);
        bool valid = true;
        try {
          flip.spec.validate();
        } catch (const InvalidArgument&) {
          valid = false;
        }
        const std::size_t before = slot.builds();
        if (!valid) {
          EXPECT_THROW(slot.acquire(flip.spec), InvalidArgument) << flip.name;
          EXPECT_EQ(slot.builds(), before) << flip.name;
          return;
        }
        const auto graph = slot.acquire(flip.spec);
        EXPECT_EQ(slot.builds(), before + 1) << flip.name;
        EXPECT_NE(graph, held) << flip.name;
        EXPECT_EQ(graph->spec(), flip.spec) << flip.name;
        EXPECT_EQ(slot.acquire(flip.spec), graph) << flip.name;  // now held
      });
  EXPECT_EQ(flips, 10u);
}

TEST(GraphSlot, CompilingOnAnotherFabricReleasesTheHeldGraph) {
  const auto nl = four_context_workload();
  CompileService service;
  const Compiled a = service.compile(nl, small_spec());
  const std::weak_ptr<const arch::RoutingGraph> graph_a =
      service.graph_slot().acquire(a.design.fabric);
  EXPECT_EQ(service.graph_slot().builds(), 1u);  // still held: no build
  EXPECT_FALSE(graph_a.expired());

  arch::FabricSpec wider = small_spec();
  wider.channel_width += 2;
  service.compile(nl, wider);
  EXPECT_EQ(service.graph_slot().builds(), 2u);
  EXPECT_TRUE(graph_a.expired());
}

TEST(GraphSlot, ConcurrentCompilesOnTwoFabricsMatchUncached) {
  // Eight threads compile, then delta-edit, designs on two fabrics through
  // one service whose design store holds one design, so nearly every
  // compile misses and the held graph flips between the fabrics while
  // other compiles still read the graph it replaced.  Every bitstream must
  // equal the same design's uncached compile.
  arch::FabricSpec wider = small_spec();
  wider.channel_width += 2;
  const std::vector<arch::FabricSpec> fabrics = {small_spec(), wider};
  core::CompileOptions opts;
  opts.placer.num_threads = 1;
  opts.router.num_threads = 1;
  constexpr std::size_t kThreads = 8;
  struct Job {
    netlist::MultiContextNetlist netlist;
    netlist::MultiContextNetlist edited;
    const arch::FabricSpec* fabric = nullptr;
    std::string want;
    std::string want_edited;
  };
  std::vector<Job> jobs(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Job& job = jobs[t];
    job.netlist = four_context_workload(4 + t / 2);
    job.edited = workload::retable_edit(job.netlist,
                                        pick_lut_node(job.netlist), t + 1);
    job.fabric = &fabrics[t % 2];
    job.want = config::to_text(
        core::compile(job.netlist, *job.fabric, opts).full_bitstream);
    job.want_edited = config::to_text(
        core::compile(job.edited, *job.fabric, opts).full_bitstream);
  }

  IncrementalOptions tiny;
  tiny.limits.max_entries = 1;
  CompileService service(tiny);
  std::vector<std::string> got(kThreads);
  std::vector<std::string> got_edited(kThreads);
  std::vector<std::string> fallbacks(kThreads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Job& job = jobs[t];
        const Compiled base = service.compile(job.netlist, *job.fabric, opts);
        got[t] = config::to_text(base.design.full_bitstream);
        const Compiled inc =
            service.compile_incremental(base, job.edited, opts);
        got_edited[t] = config::to_text(inc.design.full_bitstream);
        fallbacks[t] = inc.design.cache.delta_fallback;
      });
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], jobs[t].want) << "thread " << t;
    EXPECT_EQ(got_edited[t], jobs[t].want_edited) << "thread " << t;
    EXPECT_EQ(fallbacks[t], "") << "thread " << t;
  }
  EXPECT_GE(service.graph_slot().builds(), 2u);
}

}  // namespace
}  // namespace mcfpga::cache
