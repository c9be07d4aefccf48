// Tests for the content-addressed stage cache and the delta-recompile
// driver (src/cache/): cache-enabled compiles are bit-identical to
// uncached ones (cold and warm, across timing modes and closure), cache
// hits are shared across worker counts, the LRU bounds hold, pattern
// interning refcounts compose with eviction, concurrent hits restore
// correctly while evictions land mid-restore, and delta recompiles of
// edited netlists stay functionally correct with full-recompile QoR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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
    EXPECT_GT(cold.design.cache.misses, 0u);

    const Compiled warm = service.compile(nl, spec, opts);
    expect_same_design(plain, warm.design);
    EXPECT_EQ(warm.design.cache.misses, 0u)
        << "closure=" << opts.closure_iterations;
    EXPECT_EQ(warm.design.cache.hits,
              opts.closure_iterations >= 2 ? 6u : 8u);
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
  EXPECT_EQ(warm.design.cache.misses, 0u);
  expect_same_design(cold.design, warm.design);
}

// --- cheap hits --------------------------------------------------------------

core::FlowContext cached_flow(FlowCache& cache,
                              const netlist::MultiContextNetlist& nl,
                              const arch::FabricSpec& spec,
                              std::size_t num_stages = 8) {
  core::FlowContext ctx = core::make_flow_context(nl, spec, {});
  cache.attach(ctx);
  const auto& pipeline = core::default_pipeline();
  core::run_pipeline(ctx, {pipeline.begin(), pipeline.begin() + num_stages});
  return ctx;
}

TEST(StageCache, FullHitBuildsNoGraphAndSharesBitstreamRows) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  FlowCache cache;
  const core::FlowContext cold = cached_flow(cache, nl, spec);
  EXPECT_EQ(cold.cache_misses, 8u);
  EXPECT_NE(cold.graph, nullptr);

  const core::FlowContext first = cached_flow(cache, nl, spec);
  const core::FlowContext second = cached_flow(cache, nl, spec);
  EXPECT_EQ(first.cache_hits, 8u);
  EXPECT_EQ(first.cache_misses, 0u);
  // A place hit restores the grown spec only; no stage ran to need a graph.
  EXPECT_EQ(first.graph, nullptr);
  EXPECT_EQ(first.spec.width, cold.spec.width);
  EXPECT_EQ(first.spec.height, cold.spec.height);
  // Both hits hand out the artifact's one restored bitstream: no row copy.
  EXPECT_TRUE(first.full_bitstream.shares_rows_with(second.full_bitstream));
  EXPECT_FALSE(first.full_bitstream.shares_rows_with(cold.full_bitstream));
  EXPECT_EQ(config::to_text(first.full_bitstream),
            config::to_text(cold.full_bitstream));
}

TEST(StageCache, StageAfterAPlaceHitBuildsTheGraphOnDemand) {
  // Publish tech_map..place only, so the next flow hits through place and
  // then runs route (which needs the graph the place hit did not build).
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  FlowCache cache;
  cached_flow(cache, nl, spec, 5);
  core::FlowContext ctx = cached_flow(cache, nl, spec);
  EXPECT_EQ(ctx.cache_hits, 5u);
  EXPECT_EQ(ctx.cache_misses, 3u);
  EXPECT_NE(ctx.graph, nullptr);
  expect_same_design(core::compile(nl, spec),
                     core::finalize_design(std::move(ctx)));
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
  // ones into a cache that holds about one design, so entries are evicted
  // while other threads restore from them.  Every result must equal a
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
  tiny.limits.max_entries = 10;
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
  EXPECT_LE(service.artifacts().num_entries(), 10u);
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
    EXPECT_EQ(c.design.cache.hits, 8u);
    EXPECT_EQ(c.design.cache.misses, 0u);
  }
}

// --- cache bounds -----------------------------------------------------------

TEST(StageCache, LruEvictionHoldsEntryBound) {
  // Room for one pipeline's artifacts (8) but not three: the bound must
  // hold throughout while the freshest design stays fully resident.
  IncrementalOptions options;
  options.limits.max_entries = 10;
  CompileService service(options);
  const auto spec = small_spec();
  for (const std::size_t width : {6u, 8u, 10u}) {
    service.compile(four_context_workload(width), spec);
    EXPECT_LE(service.artifacts().num_entries(), 10u);
  }
  EXPECT_GT(service.artifacts().counters().evictions, 0u);
  // The freshest artifacts still replay despite the churn.
  const Compiled warm = service.compile(four_context_workload(10), spec);
  EXPECT_EQ(warm.design.cache.misses, 0u);
}

TEST(StageCache, ByteBoundNeverEvictsTheSoleEntry) {
  IncrementalOptions options;
  options.limits.max_bytes = 1;  // every artifact is over budget
  CompileService service(options);
  service.compile(four_context_workload(), small_spec());
  EXPECT_EQ(service.artifacts().num_entries(), 1u);
  EXPECT_GT(service.artifacts().counters().evictions, 0u);
}

// --- pattern interning ------------------------------------------------------

TEST(PatternInterner, RefcountsDedupAndLowestFirstRecycling) {
  PatternInterner interner;
  const config::ContextPattern a(BitVector::from_string("0101"));
  const config::ContextPattern b(BitVector::from_string("1111"));

  const auto id_a = interner.intern(a);
  EXPECT_EQ(interner.intern(config::ContextPattern(
                BitVector::from_string("0101"))),
            id_a);
  EXPECT_EQ(interner.ref_count(id_a), 2u);
  EXPECT_EQ(interner.dedup_hits(), 1u);
  EXPECT_EQ(interner.num_live(), 1u);

  const auto id_b = interner.intern(b);
  EXPECT_NE(id_b, id_a);
  EXPECT_EQ(interner.num_live(), 2u);

  interner.release(id_a);
  EXPECT_EQ(interner.ref_count(id_a), 1u);
  interner.release(id_a);
  EXPECT_EQ(interner.ref_count(id_a), 0u);
  EXPECT_EQ(interner.num_live(), 1u);
  EXPECT_THROW(interner.release(id_a), InvalidArgument);

  // The dead id is recycled lowest-first for the next new pattern.
  const auto id_c = interner.intern(config::ContextPattern(
      BitVector::from_string("0011")));
  EXPECT_EQ(id_c, id_a);
}

TEST(PatternInterner, PatternSetRetainsOnCopyReleasesOnDestroy) {
  PatternInterner interner;
  const config::ContextPattern p(BitVector::from_string("0110"));
  {
    PatternSet set(&interner);
    set.add(p);
    set.add(p);  // duplicate id, second reference
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.ids()[0], set.ids()[1]);
    EXPECT_EQ(interner.ref_count(set.ids()[0]), 2u);
    {
      const PatternSet copy = set;
      EXPECT_EQ(interner.ref_count(set.ids()[0]), 4u);
    }
    EXPECT_EQ(interner.ref_count(set.ids()[0]), 2u);
  }
  EXPECT_EQ(interner.num_live(), 0u);
}

TEST(StageCache, CachedDesignsDedupSwitchPatterns) {
  CompileService service;
  const auto spec = small_spec();
  service.compile(four_context_workload(), spec);
  const std::size_t live_after_one = service.patterns().num_live();
  EXPECT_GT(live_after_one, 0u);
  // A second design reuses mostly the same patterns (all-zero rows alone
  // dedup massively), so the live count grows far slower than the stores.
  service.compile(four_context_workload(10), spec);
  EXPECT_GT(service.patterns().dedup_hits(), service.patterns().num_live());
}

// --- content keys -----------------------------------------------------------

TEST(CacheKeys, DistinguishInputsAndChainStages) {
  const auto nl = four_context_workload();
  const auto other = four_context_workload(10);
  const auto spec = small_spec();
  const core::CompileOptions opts;

  const auto base = flow_base_key(nl, spec, opts);
  EXPECT_NE(base, flow_base_key(other, spec, opts));

  auto wider = spec;
  wider.channel_width += 2;
  EXPECT_NE(base, flow_base_key(nl, wider, opts));

  auto seeded = opts;
  seeded.seed = 2;
  EXPECT_NE(base, flow_base_key(nl, spec, seeded));

  EXPECT_NE(stage_key(base, "place"), stage_key(base, "route"));
  EXPECT_NE(stage_key(stage_key(base, "place"), "route"),
            stage_key(base, "route"));

  // Worker counts are result-neutral and stay out of the option hash.
  auto threaded = opts;
  threaded.placer.num_threads = 8;
  threaded.router.num_threads = 8;
  EXPECT_EQ(hash_compile_options(opts), hash_compile_options(threaded));
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

TEST(DeltaRecompile, RandomEditSequencesStayCorrectWithFullQoR) {
  const auto spec = small_spec();
  CompileService service;
  core::CompileOptions opts;
  netlist::MultiContextNetlist current = four_context_workload();
  Compiled compiled = service.compile(current, spec, opts);

  Rng rng(9);
  std::size_t deltas_taken = 0;
  for (std::size_t step = 0; step < 6; ++step) {
    const std::size_t node = pick_lut_node(current) +
                             rng.next_below(3);
    const auto edited =
        step % 2 == 0 ? workload::retable_edit(current, node, step + 11)
                      : workload::rewire_edit(current, node, step + 11);
    const Compiled next = service.compile_incremental(compiled, edited, opts);
    ASSERT_TRUE(next.design.routing.success) << "step " << step;
    expect_functionally_correct(next.design, edited);
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
  // The sequence must exercise the delta path, not just fall back.
  EXPECT_GT(deltas_taken, 0u);
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

}  // namespace
}  // namespace mcfpga::cache
