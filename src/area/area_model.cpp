#include "area/area_model.hpp"

#include <cstdint>
#include <unordered_map>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "config/context_id.hpp"
#include "rcm/decoder_synth.hpp"

namespace mcfpga::area {

double AreaBreakdown::total() const {
  return routing_memory + routing_mux + routing_pass + rcm_overhead +
         logic_memory + logic_mux + logic_control + flip_flops + buffers;
}

double AreaModel::conventional_switch(std::size_t num_contexts) const {
  return static_cast<double>(num_contexts) * base_.sram_bit +
         mux_tree(base_, num_contexts) + base_.pass_gate;
}

AreaBreakdown AreaModel::rcm_switch_block(
    const config::Bitstream& block_rows, const ComparisonOptions& options,
    std::size_t* networks, std::size_t* ses, std::size_t* taps) const {
  const DeviceLibrary& rcm = options.rcm_library;
  AreaBreakdown area;

  std::unordered_map<std::uint64_t, bool> seen;
  for (const auto& row : block_rows.rows()) {
    const bool share = options.share_identical_patterns;
    if (share) {
      const auto it = seen.find(row.pattern.word());
      if (it != seen.end()) {
        // Inter-row redundancy: reuse the existing network's generated bit
        // through a tap (track crossing + routing pass-gate).
        area.routing_pass += rcm.shared_tap;
        if (taps != nullptr) {
          ++*taps;
        }
        continue;
      }
      seen.emplace(row.pattern.word(), true);
    }
    const rcm::DecoderNetwork net = rcm::synthesize_decoder(row.pattern);
    // SE storage/mux/pass split: an SE is 2 SRAM + mux2 + pass-gate; we
    // itemize proportionally so breakdowns stay meaningful across device
    // libraries.
    const double se_area =
        static_cast<double>(net.se_count()) * rcm.switch_element;
    const double storage_share = (2.0 * base_.sram_bit) /
                                 (2.0 * base_.sram_bit + base_.mux2_stage +
                                  base_.pass_gate);
    const double mux_share = base_.mux2_stage /
                             (2.0 * base_.sram_bit + base_.mux2_stage +
                              base_.pass_gate);
    area.routing_memory += se_area * storage_share;
    area.routing_mux += se_area * mux_share;
    area.routing_pass += se_area * (1.0 - storage_share - mux_share);
    area.rcm_overhead +=
        static_cast<double>(net.input_controller_count()) *
            rcm.input_controller +
        static_cast<double>(net.programmable_switch_count()) *
            rcm.programmable_switch;
    if (networks != nullptr) {
      ++*networks;
    }
    if (ses != nullptr) {
      *ses += net.se_count();
    }
  }
  return area;
}

double AreaModel::conventional_logic_block(
    const lut::LogicBlockSpec& lb) const {
  const std::size_t logical_bits = std::size_t{1} << lb.base_inputs;
  const double per_output =
      // n SRAM bits behind an n:1 context mux, per logical bit.
      static_cast<double>(logical_bits) *
          (static_cast<double>(lb.num_contexts) * base_.sram_bit +
           mux_tree(base_, lb.num_contexts)) +
      // LUT input mux tree + input buffers.
      mux_tree(base_, logical_bits) +
      static_cast<double>(lb.base_inputs) * base_.inverter +
      base_.flip_flop;
  return per_output * static_cast<double>(lb.num_outputs);
}

double AreaModel::proposed_logic_block(const lut::LogicBlockSpec& lb,
                                       std::size_t controller_ses,
                                       const ComparisonOptions& options) const {
  const std::size_t k = config::num_id_bits(lb.num_contexts);
  const std::size_t total_bits =
      (std::size_t{1} << lb.base_inputs) * lb.num_contexts;
  const std::size_t max_inputs = lb.base_inputs + k;
  const double per_output =
      // Same SRAM budget, flat (no per-bit context mux).
      static_cast<double>(total_bits) * base_.sram_bit +
      // Deeper input tree: plane select folds into the input mux.
      mux_tree(base_, total_bits) +
      static_cast<double>(max_inputs) * base_.inverter +
      base_.flip_flop;
  // Local size controller, built from RCM switch elements.
  const double controller =
      static_cast<double>(controller_ses) * options.rcm_library.switch_element;
  return per_output * static_cast<double>(lb.num_outputs) + controller;
}

ComparisonReport AreaModel::compare_fabric(
    const arch::FabricSpec& spec,
    const std::vector<config::Bitstream>& switch_blocks,
    const ComparisonOptions& options) const {
  ComparisonReport report;
  const std::size_t n = spec.num_contexts;

  // --- Routing fabric -----------------------------------------------------
  std::size_t total_rows = 0;
  for (const auto& block : switch_blocks) {
    total_rows += block.num_rows();

    report.proposed = [&] {
      AreaBreakdown acc = report.proposed;
      const AreaBreakdown blk = rcm_switch_block(
          block, options, &report.decoder_networks, &report.decoder_ses,
          &report.shared_taps);
      acc.routing_memory += blk.routing_memory;
      acc.routing_mux += blk.routing_mux;
      acc.routing_pass += blk.routing_pass;
      acc.rcm_overhead += blk.rcm_overhead;
      return acc;
    }();
  }
  report.switch_rows = total_rows;

  const double conv_switch = conventional_switch(n);
  report.conventional.routing_memory +=
      static_cast<double>(total_rows) * static_cast<double>(n) *
      base_.sram_bit;
  report.conventional.routing_mux +=
      static_cast<double>(total_rows) * mux_tree(base_, n);
  report.conventional.routing_pass +=
      static_cast<double>(total_rows) * base_.pass_gate;
  (void)conv_switch;

  // --- Logic fabric --------------------------------------------------------
  const std::size_t lbs = spec.num_cells();
  report.conventional.logic_memory +=
      static_cast<double>(lbs) * static_cast<double>(spec.logic_block.num_outputs) *
      static_cast<double>(std::size_t{1} << spec.logic_block.base_inputs) *
      static_cast<double>(n) * base_.sram_bit;
  report.conventional.logic_mux +=
      static_cast<double>(lbs) *
      static_cast<double>(spec.logic_block.num_outputs) *
      (static_cast<double>(std::size_t{1} << spec.logic_block.base_inputs) *
           mux_tree(base_, n) +
       mux_tree(base_, std::size_t{1} << spec.logic_block.base_inputs) +
       static_cast<double>(spec.logic_block.base_inputs) * base_.inverter);
  report.conventional.flip_flops +=
      static_cast<double>(lbs) *
      static_cast<double>(spec.logic_block.num_outputs) * base_.flip_flop;

  const std::size_t k = config::num_id_bits(n);
  const std::size_t total_bits =
      (std::size_t{1} << spec.logic_block.base_inputs) * n;
  report.proposed.logic_memory += static_cast<double>(lbs) *
                                  static_cast<double>(spec.logic_block.num_outputs) *
                                  static_cast<double>(total_bits) *
                                  base_.sram_bit;
  report.proposed.logic_mux +=
      static_cast<double>(lbs) *
      static_cast<double>(spec.logic_block.num_outputs) *
      (mux_tree(base_, total_bits) +
       static_cast<double>(spec.logic_block.base_inputs + k) *
           base_.inverter);
  report.proposed.flip_flops +=
      static_cast<double>(lbs) *
      static_cast<double>(spec.logic_block.num_outputs) * base_.flip_flop;
  // Local size controllers: one SE per context-ID bit per logic block (the
  // adaptive-granularity steering of Sec. 4), priced in the RCM library.
  if (spec.logic_block.control == lut::SizeControl::kLocal) {
    report.proposed.logic_control +=
        static_cast<double>(lbs) * static_cast<double>(k) *
        options.rcm_library.switch_element;
  }

  // --- Context-ID distribution --------------------------------------------
  // Both fabrics broadcast k ID bits on global wires with one driver per
  // cell (paper Sec. 3); identical cost on both sides.
  const double id_drivers =
      static_cast<double>(lbs) * static_cast<double>(k) * base_.buffer;
  report.conventional.buffers += id_drivers;
  report.proposed.buffers += id_drivers;

  return report;
}

void ComparisonReport::print(std::ostream& os,
                             const std::string& title) const {
  os << "== " << title << " ==\n";
  Table t({"component", "conventional", "proposed"});
  const auto row = [&](const std::string& name, double c, double p) {
    t.add_row({name, fmt_double(c, 0), fmt_double(p, 0)});
  };
  row("routing memory", conventional.routing_memory, proposed.routing_memory);
  row("routing mux", conventional.routing_mux, proposed.routing_mux);
  row("routing pass-gates/taps", conventional.routing_pass,
      proposed.routing_pass);
  row("RCM overhead (C/P)", conventional.rcm_overhead, proposed.rcm_overhead);
  row("logic memory", conventional.logic_memory, proposed.logic_memory);
  row("logic mux trees", conventional.logic_mux, proposed.logic_mux);
  row("size controllers", conventional.logic_control, proposed.logic_control);
  row("flip-flops", conventional.flip_flops, proposed.flip_flops);
  row("ID distribution", conventional.buffers, proposed.buffers);
  t.add_separator();
  row("TOTAL", conventional.total(), proposed.total());
  t.print(os);
  os << "switch rows: " << fmt_count(switch_rows)
     << ", decoder networks: " << fmt_count(decoder_networks)
     << ", decoder SEs: " << fmt_count(decoder_ses)
     << ", shared taps: " << fmt_count(shared_taps) << "\n";
  os << "AREA RATIO (proposed / conventional): "
     << fmt_percent(ratio(), 1) << "\n";
}

void AreaModel::describe(std::ostream& os, std::size_t num_contexts) const {
  Table t({"primitive", "area (min-width transistor equivalents)"});
  t.add_row({"SRAM bit", fmt_double(base_.sram_bit, 1)});
  t.add_row({"2:1 mux stage", fmt_double(base_.mux2_stage, 1)});
  t.add_row({"pass-gate", fmt_double(base_.pass_gate, 1)});
  t.add_row({"switch element (CMOS)", fmt_double(base_.switch_element, 1)});
  t.add_row({"input controller", fmt_double(base_.input_controller, 1)});
  t.add_row({"programmable switch", fmt_double(base_.programmable_switch, 1)});
  t.add_row({"flip-flop", fmt_double(base_.flip_flop, 1)});
  t.add_row({"conventional " + std::to_string(num_contexts) +
                 "-context switch",
             fmt_double(conventional_switch(num_contexts), 1)});
  t.print(os);
}

}  // namespace mcfpga::area
