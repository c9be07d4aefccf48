#include "cache/stage_cache.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mcfpga::cache {

namespace {

// --- size estimates ----------------------------------------------------------
// Rough heap footprints for the cache's byte bound — dominant vectors
// only, constants for the rest.

std::size_t bytes_of(const std::string& s) { return 32 + s.size(); }

std::size_t bytes_of(const DesignArtifact::Value& v) {
  const core::CompiledDesign& d = v.design;
  std::size_t total = 1024 + d.sharing.classes.size() * 96 +
                      d.planes.slots.size() * 160 + d.clusters.size() * 128 +
                      d.program.lbs.size() * 256;
  for (std::size_t c = 0; c < d.netlist.num_contexts(); ++c) {
    for (const auto& node : d.netlist.context(c).nodes()) {
      total += 64 + bytes_of(node.name) + node.fanins.size() * 4 +
               node.truth_table.words().size() * 8;
    }
  }
  for (const auto& nets : d.routing.nets) {
    for (const auto& net : nets) {
      total += 64 + bytes_of(net.name);
      for (const auto& path : net.paths) {
        total += 48 + path.edges.size() * 4;
      }
    }
  }
  for (const auto& r : d.timing_reports) {
    total += 96 + (r.arrival.size() + r.required.size()) * 8 +
             r.critical_nodes.size() * 8;
  }
  for (const auto& row : v.rows) {
    total += 16 + bytes_of(row.name);
  }
  return total;
}

std::size_t bytes_of(const DesignArtifact::Patterns& p) {
  std::size_t total =
      24 + p.switch_patterns.size() * sizeof(config::ContextPattern);
  for (const auto& row : p.bitstream.rows()) {
    total += sizeof(config::BitstreamRow) + row.name.size();
  }
  return total;
}

/// The interned patterns of `a`, materialized back into values.
DesignArtifact::Patterns materialize(const DesignArtifact& a) {
  const DesignArtifact::Value& v = *a.value;
  const std::size_t num_switches = a.ids.size() - v.rows.size();
  DesignArtifact::Patterns out;
  out.switch_patterns.reserve(num_switches);
  for (std::size_t i = 0; i < num_switches; ++i) {
    out.switch_patterns.push_back(a.ids.pattern(i));
  }
  out.bitstream = v.design.full_bitstream;  // empty, with the context count
  for (std::size_t r = 0; r < v.rows.size(); ++r) {
    out.bitstream.add_row(v.rows[r].name, v.rows[r].kind,
                          a.ids.pattern(num_switches + r));
  }
  return out;
}

}  // namespace

core::CompiledDesign FlowCache::Hit::design() const {
  core::CompiledDesign d = value->design;
  d.routing.switch_patterns = patterns->switch_patterns;
  d.program.switch_patterns = patterns->switch_patterns;
  d.full_bitstream = patterns->bitstream;  // shares the rows
  return d;
}

FlowCache::Hit FlowCache::find(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Kept inside the lock's scope: once the lock is released, a concurrent
  // store may evict the entry, and dropping what would then be the last
  // reference releases interner ids, which needs the lock.
  const std::shared_ptr<const DesignArtifact> a = artifacts_.find(key);
  if (!a) {
    return {};
  }
  if (!a->patterns) {
    a->patterns =
        std::make_shared<const DesignArtifact::Patterns>(materialize(*a));
    artifacts_.charge(key, bytes_of(*a->patterns));
  }
  return Hit{a->value, a->patterns};
}

void FlowCache::store(std::uint64_t key, const core::CompiledDesign& design,
                      std::uint64_t placement_problem_hash) {
  MCFPGA_CHECK(design.program.switch_patterns ==
                   design.routing.switch_patterns,
               "a stored design programs its routing's switch patterns");
  // The value is copied out of the design before the lock is taken; only
  // interning (which mutates the interner) and the store hold it.
  // Assigning fresh objects (not `= {}`, which keeps a vector's
  // capacity) frees what the interner holds instead.
  auto value = std::make_shared<DesignArtifact::Value>();
  value->design = design;
  core::CompiledDesign& d = value->design;
  d.routing.switch_patterns = std::vector<config::ContextPattern>();
  d.program.switch_patterns = std::vector<config::ContextPattern>();
  d.full_bitstream = config::Bitstream(design.full_bitstream.num_contexts());
  d.stage_timings = std::vector<core::StageTiming>();
  d.cache = core::CacheStats();
  value->rows.reserve(design.full_bitstream.num_rows());
  for (const auto& row : design.full_bitstream.rows()) {
    value->rows.push_back(DesignArtifact::Row{row.name, row.kind});
  }
  value->placement_problem_hash = placement_problem_hash;
  const std::size_t bytes =
      bytes_of(*value) +
      (design.routing.switch_patterns.size() + value->rows.size()) * 4;

  const std::lock_guard<std::mutex> lock(mu_);
  auto artifact = std::make_shared<DesignArtifact>();
  artifact->value = std::move(value);
  artifact->ids = PatternSet(&interner_);
  for (const auto& pattern : design.routing.switch_patterns) {
    artifact->ids.add(pattern);
  }
  for (const auto& row : design.full_bitstream.rows()) {
    artifact->ids.add(row.pattern);
  }
  artifacts_.store(key, std::move(artifact), bytes);
}

FlowCache::Stats FlowCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.counters = artifacts_.counters();
  s.live_patterns = interner_.num_live();
  s.pattern_dedup_hits = interner_.dedup_hits();
  return s;
}

}  // namespace mcfpga::cache
