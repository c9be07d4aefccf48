#include "cache/key.hpp"

#include "common/hash.hpp"

namespace mcfpga::cache {

using common::Hasher;

std::uint64_t hash_dfg(const netlist::Dfg& dfg) {
  Hasher h;
  h.size(dfg.num_nodes());
  for (const netlist::DfgNode& node : dfg.nodes()) {
    h.u64(static_cast<std::uint64_t>(node.type));
    h.str(node.name);
    h.size(node.fanins.size());
    for (const netlist::NodeRef fanin : node.fanins) {
      h.i64(fanin);
    }
    h.bits(node.truth_table);
  }
  h.size(dfg.outputs().size());
  for (const netlist::DfgOutput& output : dfg.outputs()) {
    h.i64(output.node);
    h.str(output.name);
  }
  return h.digest();
}

std::uint64_t hash_netlist(const netlist::MultiContextNetlist& netlist) {
  Hasher h;
  h.size(netlist.num_contexts());
  for (std::size_t c = 0; c < netlist.num_contexts(); ++c) {
    h.u64(hash_dfg(netlist.context(c)));
  }
  return h.digest();
}

std::uint64_t hash_fabric_spec(const arch::FabricSpec& spec) {
  Hasher h;
  h.size(spec.width)
      .size(spec.height)
      .size(spec.num_contexts)
      .size(spec.logic_block.base_inputs)
      .size(spec.logic_block.num_contexts)
      .size(spec.logic_block.num_outputs)
      .u64(static_cast<std::uint64_t>(spec.logic_block.control))
      .size(spec.channel_width)
      .size(spec.double_length_tracks)
      .u64(static_cast<std::uint64_t>(spec.switch_impl))
      .size(spec.rcm.rows)
      .size(spec.rcm.cols)
      .size(spec.rcm.crossings)
      .size(spec.rcm.input_controllers);
  return h.digest();
}

std::uint64_t hash_compile_options(const core::CompileOptions& options) {
  Hasher h;
  h.u64(options.seed);

  const place::PlacerOptions& p = options.placer;
  h.u64(p.seed)
      .size(p.sweeps)
      .size(p.moves_per_sweep)
      .f64(p.initial_temperature_factor)
      .f64(p.cooling)
      .boolean(p.incremental)
      .boolean(p.range_limit)
      .boolean(p.adaptive_cooling)
      .size(p.num_restarts)
      // num_threads skipped: thread count never changes the placement.
      .boolean(p.timing_mode)
      .f64(p.timing_weight);

  const route::RouterOptions& r = options.router;
  h.size(r.max_iterations)
      .f64(r.present_factor_growth)
      .f64(r.history_increment)
      .boolean(r.prefer_double_length)
      // num_threads skipped: contexts merge in context order regardless.
      .boolean(r.timing_mode)
      .f64(r.criticality_exponent_schedule.start)
      .f64(r.criticality_exponent_schedule.step)
      .f64(r.criticality_exponent_schedule.max)
      .f64(r.max_criticality)
      .u64(static_cast<std::uint64_t>(r.cross_context_mode))
      .u64(static_cast<std::uint64_t>(r.queue_mode));

  h.f64(options.delay.se_delay)
      .f64(options.delay.lut_delay)
      .boolean(options.auto_size)
      .size(options.closure_iterations)
      .f64(options.closure_slack_tolerance)
      .boolean(options.closure_adaptive_refine);
  return h.digest();
}

std::uint64_t flow_base_key(const netlist::MultiContextNetlist& netlist,
                            const arch::FabricSpec& spec,
                            const core::CompileOptions& options) {
  Hasher h;
  h.str("mcfpga-flow-v1")
      .u64(hash_netlist(netlist))
      .u64(hash_fabric_spec(spec))
      .u64(hash_compile_options(options));
  return h.digest();
}

}  // namespace mcfpga::cache
