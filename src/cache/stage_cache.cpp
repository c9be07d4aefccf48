#include "cache/stage_cache.hpp"

#include <string_view>
#include <utility>

#include "cache/key.hpp"
#include "common/error.hpp"
#include "core/timing_build.hpp"

namespace mcfpga::cache {

namespace {

// --- stored artifact types ---------------------------------------------------
// One immutable value snapshot per stage, exactly the FlowContext fields
// the stage's contract says it produces (core/stages.hpp header comment).

struct TechMapArtifact {
  netlist::MultiContextNetlist netlist;
};

struct SharingArtifact {
  netlist::SharingAnalysis sharing;
  std::vector<mapping::ClassUse> uses;
};

struct PlaneArtifact {
  mapping::PlaneAllocation planes;
};

struct ClusterArtifact {
  std::vector<core::Cluster> clusters;
  std::vector<std::size_t> slot_cluster;
  std::vector<std::size_t> slot_output;
  std::unordered_map<std::size_t, std::string> input_class_name;
  std::map<std::string, std::vector<std::size_t>> output_driver;
  std::unordered_map<std::size_t, std::size_t> input_class_terminal;
  std::map<std::string, std::size_t> input_terminals;
  std::map<std::string, std::size_t> output_terminals;
  std::size_t num_terminals = 0;
};

struct PlaceArtifact {
  arch::FabricSpec spec;  ///< Auto-grown; the graph is rebuilt on demand.
  place::Placement placement;
};

struct TimingArtifact {
  std::vector<timing::TimingReport> reports;
  std::vector<core::ContextStats> stats;
};

// Stages whose outputs carry switch patterns or bitstream rows store those
// in the PatternInterner, so a corpus of cached designs keeps each
// distinct ContextPattern once.  Such an artifact has three parts:
//   - `value`: everything else.  It holds no interner ids, so a restore
//     may keep reading it after the lock is released;
//   - `ids`: the interned patterns, released (under the lock) when the
//     artifact dies;
//   - `restored`: the patterns materialized back into restorable values.
//     The first hit builds it under the lock (the only time a restore
//     reads the interner); every later hit shares it.

template <typename Value, typename Restored>
struct InternedArtifact {
  std::shared_ptr<const Value> value;
  PatternSet ids;
  mutable std::shared_ptr<const Restored> restored;
};

/// A routing's switch patterns, materialized from interner ids.
using SwitchPatterns = std::vector<config::ContextPattern>;

struct RouteData {
  std::vector<timing::ContextTimingSpec> timing_specs;
  std::vector<std::vector<std::size_t>> net_class;
  std::vector<std::vector<std::vector<core::SinkKey>>> sink_keys;
  route::RouteResult routing;  ///< switch_patterns left empty (interned).
  route::RouteHistory history;
};
using RouteArtifact = InternedArtifact<RouteData, SwitchPatterns>;

/// The whole Place/Route/Timing block of a closure-loop compile, cached as
/// one unit (the loop's iterations are not separately addressable).
struct ClosureData {
  PlaceArtifact place;
  RouteData route;
  TimingArtifact timing;
  std::vector<core::ClosureIterationStats> closure_stats;
};
using ClosureArtifact = InternedArtifact<ClosureData, SwitchPatterns>;

struct ProgramData {
  sim::FabricProgram program;  ///< switch_patterns left empty (interned).
  struct Row {
    std::string name;
    config::ResourceKind kind;
  };
  std::vector<Row> rows;  ///< Bitstream rows; patterns interned.
  std::size_t bitstream_contexts = 0;
};
struct ProgramRestored {
  SwitchPatterns switch_patterns;
  config::Bitstream bitstream;  ///< Hits share its row storage.
};
/// ids: the program's switch patterns, then one per bitstream row.
using ProgramArtifact = InternedArtifact<ProgramData, ProgramRestored>;

// --- size estimates ----------------------------------------------------------
// Rough heap footprints for the cache's byte bound — dominant vectors
// only, constants for the rest.

std::size_t bytes_of(const std::string& s) { return 32 + s.size(); }
std::size_t bytes_of(const BitVector& v) {
  return 24 + v.words().size() * 8;
}

std::size_t bytes_of(const netlist::MultiContextNetlist& nl) {
  std::size_t total = 64;
  for (std::size_t c = 0; c < nl.num_contexts(); ++c) {
    for (const auto& node : nl.context(c).nodes()) {
      total += 64 + bytes_of(node.name) + node.fanins.size() * 4 +
               bytes_of(node.truth_table);
    }
    total += nl.context(c).outputs().size() * 48;
  }
  return total;
}

std::size_t bytes_of(const route::RouteResult& r) {
  std::size_t total = 128 + r.context_summary.size() * 80;
  for (const auto& nets : r.nets) {
    for (const auto& net : nets) {
      total += 64 + bytes_of(net.name);
      for (const auto& path : net.paths) {
        total += 48 + path.edges.size() * 4;
      }
    }
  }
  return total;
}

std::size_t bytes_of(const std::vector<timing::ContextTimingSpec>& specs) {
  std::size_t total = 0;
  for (const auto& spec : specs) {
    total += 64;
    for (const auto& net : spec.nets) {
      total += 32;
      for (const auto& sink : net.sinks) {
        total += 24 + sink.readers.size() * 12;
      }
    }
  }
  return total;
}

std::size_t bytes_of(const place::Placement& p) {
  return 96 + p.cluster_pos.size() * 16 + p.io_pads.size() * 8 +
         p.restart_stats.size() * 24;
}

std::size_t bytes_of(const std::vector<timing::TimingReport>& reports) {
  std::size_t total = 0;
  for (const auto& r : reports) {
    total += 96 + (r.arrival.size() + r.required.size()) * 8 +
             r.critical_nodes.size() * 8;
  }
  return total;
}

std::size_t sink_keys_bytes(
    const std::vector<std::vector<std::vector<core::SinkKey>>>& keys) {
  std::size_t total = 0;
  for (const auto& per_ctx : keys) {
    for (const auto& per_net : per_ctx) {
      total += 24 + per_net.size() * sizeof(core::SinkKey);
    }
  }
  return total;
}

std::size_t bytes_of(const route::RouteHistory& h) {
  std::size_t total = 24;
  for (const auto& per_ctx : h.per_context) {
    total += 24 + per_ctx.size() * 8;
  }
  return total;
}

std::size_t bytes_of(const PlaceArtifact& a) {
  return 128 + bytes_of(a.placement);
}

std::size_t bytes_of(const RouteData& a) {
  return bytes_of(a.timing_specs) + sink_keys_bytes(a.sink_keys) +
         bytes_of(a.routing) + bytes_of(a.history);
}

std::size_t bytes_of(const TimingArtifact& a) {
  return bytes_of(a.reports) + a.stats.size() * sizeof(core::ContextStats);
}

std::size_t bytes_of(const SwitchPatterns& patterns) {
  std::size_t total = 24;
  for (const auto& p : patterns) {
    total += bytes_of(p.values());
  }
  return total;
}

std::size_t bytes_of(const ProgramRestored& r) {
  std::size_t total = bytes_of(r.switch_patterns);
  for (const auto& row : r.bitstream.rows()) {
    total += 16 + bytes_of(row.name) + bytes_of(row.pattern.values());
  }
  return total;
}

// --- intern/materialize helpers ---------------------------------------------

/// A copy of `from` without its switch patterns, which the artifact
/// interns instead of copying.
template <typename T>
T copy_without_switch_patterns(T& from) {
  SwitchPatterns patterns = std::move(from.switch_patterns);
  from.switch_patterns.clear();
  T copy = from;
  from.switch_patterns = std::move(patterns);
  return copy;
}

void intern_all(PatternSet& ids, const SwitchPatterns& patterns) {
  for (const auto& pattern : patterns) {
    ids.add(pattern);
  }
}

void intern_all(PatternSet& ids,
                const std::vector<config::BitstreamRow>& rows) {
  for (const auto& row : rows) {
    ids.add(row.pattern);
  }
}

/// The first `count` patterns of `ids`.
SwitchPatterns patterns_of(const PatternSet& ids, std::size_t count) {
  SwitchPatterns patterns;
  patterns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(ids.pattern(i));
  }
  return patterns;
}

SwitchPatterns materialize(const RouteData&, const PatternSet& ids) {
  return patterns_of(ids, ids.size());
}

SwitchPatterns materialize(const ClosureData&, const PatternSet& ids) {
  return patterns_of(ids, ids.size());
}

ProgramRestored materialize(const ProgramData& data, const PatternSet& ids) {
  const std::size_t num_switches = ids.size() - data.rows.size();
  ProgramRestored out;
  out.switch_patterns = patterns_of(ids, num_switches);
  out.bitstream = config::Bitstream(data.bitstream_contexts);
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    out.bitstream.add_row(data.rows[r].name, data.rows[r].kind,
                          ids.pattern(num_switches + r));
  }
  return out;
}

// --- capture/restore of the Place/Route/Timing outputs -----------------------
// Shared by those stages' own artifacts and the closure artifact.

PlaceArtifact capture_place(const core::FlowContext& ctx) {
  return PlaceArtifact{ctx.spec, ctx.placement};
}

void restore(const PlaceArtifact& a, core::FlowContext& ctx) {
  // The spec replays PlaceStage's physical world; the graph is built from
  // it only if a later stage runs (core::routing_graph).  The flow_timing /
  // placement_build by-products stay absent and their consumers rebuild
  // them on demand (both are pure functions of the clustering).
  ctx.spec = a.spec;
  ctx.graph.reset();
  ctx.placement = a.placement;
}

RouteData capture_route(core::FlowContext& ctx) {
  return RouteData{ctx.timing_specs, ctx.net_class, ctx.sink_keys,
                   copy_without_switch_patterns(ctx.routing),
                   ctx.route_history};
}

void restore(const RouteData& a, const SwitchPatterns& patterns,
             core::FlowContext& ctx) {
  ctx.timing_specs = a.timing_specs;
  ctx.net_class = a.net_class;
  ctx.sink_keys = a.sink_keys;
  ctx.routing = a.routing;
  ctx.routing.switch_patterns = patterns;
  ctx.route_history = a.history;
  ctx.flow_timing.reset();  // replays RouteStage consuming the cache
}

TimingArtifact capture_timing(const core::FlowContext& ctx) {
  return TimingArtifact{ctx.timing_reports, ctx.context_stats};
}

void restore(const TimingArtifact& a, core::FlowContext& ctx) {
  ctx.timing_reports = a.reports;
  ctx.context_stats = a.stats;
}

// --- locked lookups ----------------------------------------------------------
// The FlowCache mutex guards the store and the interner.  A lookup holds
// it only to find the artifact (and, for an interned one, to materialize
// it once); the caller restores from what is returned with it released.
// Both lookups count the outcome into the flow's own counters.

template <typename T>
std::shared_ptr<const T> find(std::mutex& mu, ArtifactCache& store,
                              core::FlowContext& ctx) {
  std::shared_ptr<const T> found;
  {
    const std::lock_guard<std::mutex> lock(mu);
    found = store.find<T>(ctx.cache_key);
  }
  ++(found ? ctx.cache_hits : ctx.cache_misses);
  return found;
}

/// What a restore reads of an interned artifact: both parts are
/// interner-free, so they stay valid after the lock is released.
template <typename Value, typename Restored>
struct InternedHit {
  std::shared_ptr<const Value> value;
  std::shared_ptr<const Restored> restored;
  explicit operator bool() const { return value != nullptr; }
};

template <typename Value, typename Restored>
InternedHit<Value, Restored> find_interned(std::mutex& mu,
                                           ArtifactCache& store,
                                           core::FlowContext& ctx) {
  using Artifact = InternedArtifact<Value, Restored>;
  InternedHit<Value, Restored> hit;
  {
    const std::lock_guard<std::mutex> lock(mu);
    // Kept inside the lock's scope: once the lock is released, a
    // concurrent store may evict the entry, and dropping what would then be
    // the last reference releases interner ids, which needs the lock.
    const std::shared_ptr<const Artifact> a =
        store.find<Artifact>(ctx.cache_key);
    if (a) {
      if (!a->restored) {
        a->restored =
            std::make_shared<const Restored>(materialize(*a->value, a->ids));
        store.charge(ctx.cache_key, bytes_of(*a->restored));
      }
      hit.value = a->value;
      hit.restored = a->restored;
    }
  }
  ++(hit ? ctx.cache_hits : ctx.cache_misses);
  return hit;
}

}  // namespace

void FlowCache::attach(core::FlowContext& ctx) {
  MCFPGA_REQUIRE(ctx.input != nullptr,
                 "FlowCache::attach needs a seeded flow context");
  ctx.cache = this;
  ctx.cache_key = flow_base_key(*ctx.input, ctx.spec, ctx.options);
  ctx.cache_key_valid = true;
}

FlowCache::Stats FlowCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.counters = artifacts_.counters();
  s.live_patterns = interner_.num_live();
  s.pattern_dedup_hits = interner_.dedup_hits();
  return s;
}

bool FlowCache::before_stage(const char* stage, core::FlowContext& ctx) {
  if (!ctx.cache_key_valid) {
    return false;
  }
  // Only the lookup takes the lock; every copy below reads immutable,
  // interner-free snapshots with the lock released, so concurrent hits
  // restore in parallel.
  ctx.cache_key = stage_key(ctx.cache_key, stage);
  const std::string_view name(stage);

  if (name == "tech_map") {
    if (const auto a = find<TechMapArtifact>(mu_, artifacts_, ctx)) {
      ctx.netlist = a->netlist;
      return true;
    }
  } else if (name == "sharing") {
    if (const auto a = find<SharingArtifact>(mu_, artifacts_, ctx)) {
      ctx.sharing = a->sharing;
      ctx.uses = a->uses;
      return true;
    }
  } else if (name == "plane_alloc") {
    if (const auto a = find<PlaneArtifact>(mu_, artifacts_, ctx)) {
      ctx.planes = a->planes;
      return true;
    }
  } else if (name == "cluster") {
    if (const auto a = find<ClusterArtifact>(mu_, artifacts_, ctx)) {
      ctx.clusters = a->clusters;
      ctx.slot_cluster = a->slot_cluster;
      ctx.slot_output = a->slot_output;
      ctx.input_class_name = a->input_class_name;
      ctx.output_driver = a->output_driver;
      ctx.input_class_terminal = a->input_class_terminal;
      ctx.input_terminals = a->input_terminals;
      ctx.output_terminals = a->output_terminals;
      ctx.num_terminals = a->num_terminals;
      return true;
    }
  } else if (name == "place") {
    if (const auto a = find<PlaceArtifact>(mu_, artifacts_, ctx)) {
      restore(*a, ctx);
      return true;
    }
  } else if (name == "route") {
    if (const auto hit =
            find_interned<RouteData, SwitchPatterns>(mu_, artifacts_, ctx)) {
      restore(*hit.value, *hit.restored, ctx);
      return true;
    }
  } else if (name == "timing") {
    if (const auto a = find<TimingArtifact>(mu_, artifacts_, ctx)) {
      restore(*a, ctx);
      return true;
    }
  } else if (name == "program") {
    if (const auto hit = find_interned<ProgramData, ProgramRestored>(
            mu_, artifacts_, ctx)) {
      ctx.program = hit.value->program;
      ctx.program.switch_patterns = hit.restored->switch_patterns;
      ctx.full_bitstream = hit.restored->bitstream;  // shares the rows
      return true;
    }
  } else if (name == "closure") {
    if (const auto hit =
            find_interned<ClosureData, SwitchPatterns>(mu_, artifacts_, ctx)) {
      const ClosureData& a = *hit.value;
      restore(a.place, ctx);
      restore(a.route, *hit.restored, ctx);
      restore(a.timing, ctx);
      ctx.closure_stats = a.closure_stats;
      return true;
    }
  }
  return false;
}

void FlowCache::after_stage(const char* stage, core::FlowContext& ctx) {
  if (!ctx.cache_key_valid) {
    return;
  }
  // Artifacts are copied out of the context before the lock is taken;
  // only interning (which mutates the interner) and the store hold it.
  const std::uint64_t key = ctx.cache_key;
  const std::string_view name(stage);
  const auto publish = [&](auto artifact, std::size_t bytes) {
    using T = typename decltype(artifact)::element_type;
    const std::lock_guard<std::mutex> lock(mu_);
    artifacts_.store<T>(key, std::move(artifact), bytes);
  };
  const auto publish_interned = [&](auto artifact, std::size_t bytes,
                                    const auto&... patterns) {
    using T = typename decltype(artifact)::element_type;
    const std::lock_guard<std::mutex> lock(mu_);
    artifact->ids = PatternSet(&interner_);
    (intern_all(artifact->ids, patterns), ...);
    artifacts_.store<T>(key, std::move(artifact), bytes);
  };

  if (name == "tech_map") {
    auto a = std::make_shared<TechMapArtifact>();
    a->netlist = ctx.netlist;
    const std::size_t bytes = bytes_of(a->netlist);
    publish(std::move(a), bytes);
  } else if (name == "sharing") {
    auto a = std::make_shared<SharingArtifact>();
    a->sharing = ctx.sharing;
    a->uses = ctx.uses;
    std::size_t bytes = 64;
    for (const auto& per_ctx : a->sharing.class_of) {
      bytes += 24 + per_ctx.size() * 8;
    }
    bytes += a->sharing.classes.size() * 96 + a->uses.size() * 96;
    publish(std::move(a), bytes);
  } else if (name == "plane_alloc") {
    auto a = std::make_shared<PlaneArtifact>();
    a->planes = ctx.planes;
    const std::size_t bytes = 128 + a->planes.slots.size() * 160;
    publish(std::move(a), bytes);
  } else if (name == "cluster") {
    auto a = std::make_shared<ClusterArtifact>();
    a->clusters = ctx.clusters;
    a->slot_cluster = ctx.slot_cluster;
    a->slot_output = ctx.slot_output;
    a->input_class_name = ctx.input_class_name;
    a->output_driver = ctx.output_driver;
    a->input_class_terminal = ctx.input_class_terminal;
    a->input_terminals = ctx.input_terminals;
    a->output_terminals = ctx.output_terminals;
    a->num_terminals = ctx.num_terminals;
    std::size_t bytes = 256 + a->clusters.size() * 128 +
                        (a->slot_cluster.size() + a->slot_output.size()) * 8;
    for (const auto& [cls, n] : a->input_class_name) {
      bytes += 48 + bytes_of(n);
    }
    for (const auto& [n, drivers] : a->output_driver) {
      bytes += 48 + bytes_of(n) + drivers.size() * 8;
    }
    publish(std::move(a), bytes);
  } else if (name == "place") {
    auto a = std::make_shared<PlaceArtifact>(capture_place(ctx));
    const std::size_t bytes = bytes_of(*a);
    publish(std::move(a), bytes);
  } else if (name == "route") {
    auto a = std::make_shared<RouteArtifact>();
    a->value = std::make_shared<const RouteData>(capture_route(ctx));
    const std::size_t bytes =
        bytes_of(*a->value) + ctx.routing.switch_patterns.size() * 4;
    publish_interned(std::move(a), bytes, ctx.routing.switch_patterns);
  } else if (name == "timing") {
    auto a = std::make_shared<TimingArtifact>(capture_timing(ctx));
    const std::size_t bytes = bytes_of(*a);
    publish(std::move(a), bytes);
  } else if (name == "program") {
    auto data = std::make_shared<ProgramData>();
    data->program = copy_without_switch_patterns(ctx.program);
    data->rows.reserve(ctx.full_bitstream.num_rows());
    for (const auto& row : ctx.full_bitstream.rows()) {
      data->rows.push_back(ProgramData::Row{row.name, row.kind});
    }
    data->bitstream_contexts = ctx.full_bitstream.num_contexts();
    std::size_t bytes = 256 + data->program.lbs.size() * 256 +
                        (ctx.program.switch_patterns.size() +
                         data->rows.size()) * 4;
    for (const auto& row : data->rows) {
      bytes += 16 + bytes_of(row.name);
    }
    auto a = std::make_shared<ProgramArtifact>();
    a->value = std::move(data);
    publish_interned(std::move(a), bytes, ctx.program.switch_patterns,
                     ctx.full_bitstream.rows());
  } else if (name == "closure") {
    auto a = std::make_shared<ClosureArtifact>();
    a->value = std::make_shared<const ClosureData>(
        ClosureData{capture_place(ctx), capture_route(ctx),
                    capture_timing(ctx), ctx.closure_stats});
    const ClosureData& data = *a->value;
    const std::size_t bytes =
        bytes_of(data.place) + bytes_of(data.route) + bytes_of(data.timing) +
        data.closure_stats.size() * sizeof(core::ClosureIterationStats) +
        ctx.routing.switch_patterns.size() * 4;
    publish_interned(std::move(a), bytes, ctx.routing.switch_patterns);
  }
}

}  // namespace mcfpga::cache
