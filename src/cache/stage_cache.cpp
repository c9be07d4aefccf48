#include "cache/stage_cache.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace mcfpga::cache {

namespace {

// --- size estimates ----------------------------------------------------------
// Rough heap footprints for the cache's byte bound — dominant vectors
// only, constants for the rest.

std::size_t bytes_of(const std::string& s) { return 32 + s.size(); }

std::size_t bytes_of(const core::CompiledDesign& d) {
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
  total += (d.routing.switch_patterns.size() +
            d.program.switch_patterns.size()) *
           sizeof(config::ContextPattern);
  for (const auto& row : d.full_bitstream.rows()) {
    total += sizeof(config::BitstreamRow) + row.name.size();
  }
  return total;
}

}  // namespace

std::shared_ptr<const DesignArtifact> FlowCache::find(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  return artifacts_.find(key);
}

void FlowCache::store(std::uint64_t key, const core::CompiledDesign& design,
                      std::uint64_t placement_problem_hash) {
  MCFPGA_CHECK(design.program.switch_patterns ==
                   design.routing.switch_patterns,
               "a stored design programs its routing's switch patterns");
  // Copied before the lock is taken; the lock guards only the map.
  auto artifact = std::make_shared<DesignArtifact>();
  artifact->design = design;
  artifact->design.stage_timings.clear();
  artifact->design.cache = core::CacheStats();
  artifact->placement_problem_hash = placement_problem_hash;
  const std::size_t bytes = bytes_of(artifact->design);

  const std::lock_guard<std::mutex> lock(mu_);
  artifacts_.store(key, std::move(artifact), bytes);
}

FlowCache::Stats FlowCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return Stats{artifacts_.counters()};
}

}  // namespace mcfpga::cache
