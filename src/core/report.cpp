#include "core/report.hpp"

#include "common/strings.hpp"
#include "common/table.hpp"
#include "config/stats.hpp"

namespace mcfpga::core {

void print_design_report(std::ostream& os, const CompiledDesign& design) {
  os << "== compiled design ==\n";
  os << "fabric: " << design.fabric.describe() << "\n";

  Table t({"metric", "value"});
  t.add_row({"LUT ops (post tech-map)",
             fmt_count(design.netlist.total_lut_ops())});
  t.add_row({"sharing classes (LUT)",
             fmt_count(design.sharing.shared_lut_classes())});
  t.add_row({"LUT ops merged away",
             fmt_count(design.sharing.merged_lut_ops())});
  t.add_row({"slots", fmt_count(design.planes.num_slots())});
  t.add_row({"logic blocks", fmt_count(design.clusters.size())});
  t.add_row({"LUT memory used (bits)", fmt_count(design.planes.used_bits())});
  t.add_row(
      {"LUT memory duplicated (bits)", fmt_count(design.planes.duplicated_bits())});
  t.add_row({"size-controller SEs",
             fmt_count(design.planes.controller_se_cost())});
  t.add_row({"placement cost (HPWL)", fmt_double(design.placement.cost, 1)});
  t.add_row({"bitstream rows", fmt_count(design.full_bitstream.num_rows())});
  t.print(os);

  Table ct({"context", "nets", "switches crossed", "critical path (SE units)",
            "worst slack", "shared wires", "timing arcs"});
  for (std::size_t c = 0; c < design.context_stats.size(); ++c) {
    const auto& s = design.context_stats[c];
    std::string slack = "-";
    std::string arcs = "-";
    if (c < design.timing_reports.size()) {
      slack = fmt_double(design.timing_reports[c].worst_slack, 1);
      arcs = fmt_count(design.timing_reports[c].num_arcs);
    }
    ct.add_row({std::to_string(c), fmt_count(s.nets),
                fmt_count(s.switches_crossed),
                fmt_double(s.critical_path, 1), slack,
                fmt_count(s.cross_context_conflicts), arcs});
  }
  ct.print(os);

  if (!design.routing.negotiation_stats.empty()) {
    Table nt({"negotiation round", "conflicts", "worst switches",
              "worst critical path", "ms", "kept"});
    for (const auto& r : design.routing.negotiation_stats) {
      nt.add_row({std::to_string(r.round), fmt_count(r.conflicts),
                  fmt_count(r.worst_critical_switches),
                  fmt_double(r.worst_critical_path, 1),
                  fmt_double(r.seconds * 1e3, 2), r.kept ? "yes" : ""});
    }
    nt.print(os);
  }

  if (!design.closure_stats.empty()) {
    Table cl({"closure iter", "critical path", "worst slack", "wirelength",
              "ms"});
    for (const auto& s : design.closure_stats) {
      cl.add_row({std::to_string(s.iteration),
                  fmt_double(s.critical_path, 1), fmt_double(s.worst_slack, 1),
                  fmt_count(s.wirelength), fmt_double(s.seconds * 1e3, 2)});
    }
    cl.print(os);
  }

  const CacheStats& cs = design.cache;
  if (cs.hits + cs.misses + cs.evictions != 0 || cs.delta ||
      !cs.delta_fallback.empty() || !cs.delta_fallback_counts.empty()) {
    Table cache({"design cache", "value"});
    cache.add_row({"design hits", fmt_count(cs.hits)});
    cache.add_row({"design misses", fmt_count(cs.misses)});
    cache.add_row({"evictions", fmt_count(cs.evictions)});
    if (cs.delta) {
      cache.add_row({"delta recompile", "yes"});
      cache.add_row({"nets invalidated", fmt_count(cs.nets_invalidated)});
      cache.add_row({"nets re-routed", fmt_count(cs.nets_rerouted)});
      cache.add_row({"anneal moves saved", fmt_count(cs.anneal_moves_saved)});
    }
    if (!cs.delta_fallback.empty()) {
      cache.add_row({"delta fallback", cs.delta_fallback});
    }
    // Per-reason breakdown over the service's lifetime, so a fleet of
    // delta recompiles that keeps degrading to full compiles says why.
    for (const auto& [reason, count] : cs.delta_fallback_counts) {
      cache.add_row({"fallbacks: " + reason, fmt_count(count)});
    }
    cache.print(os);
  }

  const config::BitstreamStats stats =
      config::compute_stats(design.full_bitstream);
  config::print_stats(os, stats, "fabric bitstream statistics");
}

}  // namespace mcfpga::core
