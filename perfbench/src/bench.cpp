#include "bench.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <tuple>

#include "area/area_model.hpp"
#include "arch/routing_graph.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "netlist/eval.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace mcfpga;

namespace {

// Random input vectors simulated per context of every distinct output.
constexpr std::size_t kVectorsPerContext = 16;

}  // namespace

std::string stage_span(const std::string& stage, bool restored) {
  if (restored) {
    return "cache.restore_" + stage + "_ms";
  }
  if (stage == "tech_map" || stage == "sharing" || stage == "plane_alloc") {
    return "mapping." + stage + "_ms";
  }
  return stage + ".ms";
}

bool StageSpans::on_stage_start(const char* stage) {
  const Clock::time_point now = Clock::now();
  if (open_) {
    close(now);
  }
  open_ = true;
  stage_ = stage;
  hits_at_start_ = hits();
  start_ = Clock::now();
  return true;
}

void StageSpans::on_stage_done(const char* /*stage*/, double /*seconds*/) {
  close(Clock::now());
}

void StageSpans::flush(Spans& into) {
  if (open_) {
    close(Clock::now());
  }
  for (const auto& [name, ms] : spans_) {
    into[name] += ms;
  }
  spans_.clear();
}

std::size_t StageSpans::hits() const { return cache_.stats().counters.hits; }

void StageSpans::close(Clock::time_point end) {
  open_ = false;
  spans_[stage_span(stage_, hits() > hits_at_start_)] +=
      ms_between(start_, end);
}

std::uint64_t bitstream_digest(const std::string& bitstream_text) {
  return std::hash<std::string>{}(bitstream_text);
}

Verdict judge(const core::CompiledDesign& design,
              const netlist::MultiContextNetlist& input) {
  Verdict v;
  v.digest = bitstream_digest(config::to_text(design.full_bitstream));

  const arch::RoutingGraph graph(design.fabric);
  const sim::FabricSimulator simulator(graph, design.program);
  for (std::size_t c = 0; c < input.num_contexts(); ++c) {
    const netlist::Dfg& dfg = input.context(c);
    Rng rng(0x5eedull * (c + 1));
    for (std::size_t vec = 0; vec < kVectorsPerContext; ++vec) {
      netlist::ValueMap inputs;
      for (const netlist::DfgNode& node : dfg.nodes()) {
        if (node.type == netlist::NodeType::kPrimaryInput) {
          inputs[node.name] = rng.next_bool();
        }
      }
      const netlist::ValueMap expected = netlist::evaluate(dfg, inputs);
      const netlist::ValueMap actual = simulator.eval(c, inputs);
      for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        if (it == actual.end() || it->second != value) {
          ++v.mismatches;
        }
      }
    }
  }

  // Group the routing switches by owning block, as MCFPGA::area_report
  // does, and let the area model synthesize each block's decoders.
  std::map<std::tuple<arch::SwitchOwner, std::int32_t, std::int32_t>,
           config::Bitstream>
      blocks;
  const std::size_t n = design.fabric.num_contexts;
  for (std::size_t s = 0; s < graph.num_switches(); ++s) {
    const auto& sw = graph.rr_switch(static_cast<arch::SwitchId>(s));
    auto it = blocks.try_emplace(std::make_tuple(sw.owner, sw.x, sw.y),
                                 config::Bitstream(n))
                  .first;
    it->second.add_row(sw.name, config::ResourceKind::kRoutingSwitch,
                       design.routing.switch_patterns[s]);
  }
  std::vector<config::Bitstream> block_list;
  block_list.reserve(blocks.size());
  for (auto& [key, bs] : blocks) {
    block_list.push_back(std::move(bs));
  }
  v.decoder_ses = area::AreaModel()
                      .compare_fabric(design.fabric, block_list,
                                      area::ComparisonOptions{})
                      .decoder_ses;
  return v;
}

void add_design_counts(Counts& counts, const core::CompiledDesign& design,
                       std::size_t decoder_ses) {
  double worst = 0.0;
  double kept_expanded = 0.0;
  double kept_pushes = 0.0;
  for (const core::ContextStats& cs : design.context_stats) {
    worst = std::max(worst, cs.critical_path);
    counts["qor_wirelength"] += static_cast<double>(cs.wire_nodes_used);
    counts["qor_xctx_conflicts"] +=
        static_cast<double>(cs.cross_context_conflicts);
    counts["route.stale_pops"] += static_cast<double>(cs.stale_pops);
    kept_expanded += static_cast<double>(cs.nodes_expanded);
    kept_pushes += static_cast<double>(cs.heap_pushes);
  }
  counts["qor_crit_path"] += worst;
  counts["qor_decoder_ses"] += static_cast<double>(decoder_ses);

  // Total maze work: every negotiation round / wave when the router ran a
  // cross-context scheduler, otherwise the (only) routing pass.
  const auto& rounds = design.routing.negotiation_stats;
  if (rounds.empty()) {
    counts["route.nodes_expanded"] += kept_expanded;
    counts["route.heap_pushes"] += kept_pushes;
  }
  for (const route::NegotiationRoundStats& r : rounds) {
    counts["route.nodes_expanded"] += static_cast<double>(r.nodes_expanded);
    counts["route.heap_pushes"] += static_cast<double>(r.heap_pushes);
    counts["route.spec_hits"] += static_cast<double>(r.spec_hits);
    counts["route.spec_aborts"] += static_cast<double>(r.spec_aborts);
    if (r.round > 0) {
      counts["route.waves"] += 1.0;
      counts["route.waves_kept"] += r.kept ? 1.0 : 0.0;
      counts["route.nets_rerouted"] += static_cast<double>(r.nets_rerouted);
    }
  }
  counts["place.restarts"] +=
      static_cast<double>(design.placement.restart_stats.size());
  counts["program.rows_reused"] +=
      static_cast<double>(design.cache.program_rows_reused);
  counts["program.rows_reprogrammed"] +=
      static_cast<double>(design.cache.program_rows_reprogrammed);
  counts["incremental.nets_invalidated"] +=
      static_cast<double>(design.cache.nets_invalidated);
  counts["incremental.nets_rerouted"] +=
      static_cast<double>(design.cache.nets_rerouted);
  counts["incremental.anneal_moves_saved"] +=
      static_cast<double>(design.cache.anneal_moves_saved);
}

std::string fallback_slug(const std::string& reason) {
  std::string slug;
  for (const char ch : reason.substr(0, reason.find(':'))) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  for (const char* known : kFallbackSlugs) {
    if (slug == known) {
      return slug;
    }
  }
  return "other";
}

}  // namespace perfbench
