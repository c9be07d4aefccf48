#include "arch/fabric_spec.hpp"

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::arch {

std::string to_string(SwitchImpl impl) {
  switch (impl) {
    case SwitchImpl::kConventional:
      return "conventional";
    case SwitchImpl::kRcm:
      return "rcm";
  }
  return "?";
}

void FabricSpec::validate() const {
  MCFPGA_REQUIRE(width >= 1 && height >= 1, "fabric must have >= 1 cell");
  MCFPGA_REQUIRE(config::is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
  MCFPGA_REQUIRE(logic_block.num_contexts == num_contexts,
                 "logic-block context count must match fabric context count");
  MCFPGA_REQUIRE(logic_block.base_inputs >= 1 && logic_block.base_inputs <= 8,
                 "base LUT inputs must be in [1, 8]");
  MCFPGA_REQUIRE(logic_block.num_outputs >= 1 && logic_block.num_outputs <= 8,
                 "output count must be in [1, 8]");
  MCFPGA_REQUIRE(channel_width >= 1, "channel width must be >= 1");
  MCFPGA_REQUIRE(double_length_tracks % 2 == 0,
                 "double-length tracks come in pairs (one per phase)");
}

std::string FabricSpec::describe() const {
  return std::to_string(width) + "x" + std::to_string(height) + " cells, " +
         std::to_string(num_contexts) + " contexts, W=" +
         std::to_string(channel_width) + "+" +
         std::to_string(double_length_tracks) + "dl, " +
         std::to_string(logic_block.base_inputs) + "-base LUT x" +
         std::to_string(logic_block.num_outputs) + "out (" +
         lut::to_string(logic_block.control) + " control), switches=" +
         to_string(switch_impl);
}

}  // namespace mcfpga::arch
