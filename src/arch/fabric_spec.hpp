// Fabric-level architecture parameters (paper Figs. 1, 6, 10).
//
// The fabric is an island-style width x height array of cells; each cell is
// a logic block plus a switch block.  Switch blocks are either conventional
// multi-context switches (Fig. 2: n memory bits + n:1 mux per switch) or
// RCM blocks (Fig. 6/7: switch elements doubling as context decoders).
// Channels carry single-length tracks switched at every cell and optional
// double-length tracks switched at alternate diamond switches (Fig. 10).
#pragma once

#include <cstddef>
#include <string>

#include "lut/logic_block.hpp"
#include "rcm/grid.hpp"

namespace mcfpga::arch {

/// Which circuit implements the per-switch context memory.
enum class SwitchImpl {
  kConventional,  ///< Fig. 2: n memory bits + n:1 context mux per switch.
  kRcm,           ///< Fig. 7/8: switch elements + synthesized decoders.
};

std::string to_string(SwitchImpl impl);

struct FabricSpec {
  std::size_t width = 4;   ///< Cells per row.
  std::size_t height = 4;  ///< Cells per column.
  std::size_t num_contexts = 4;

  lut::LogicBlockSpec logic_block{};

  /// Single-length tracks per routing channel.
  std::size_t channel_width = 8;
  /// Double-length tracks per channel (0 disables Fig. 10's fast lines).
  std::size_t double_length_tracks = 4;

  SwitchImpl switch_impl = SwitchImpl::kRcm;

  /// RCM block sizing per switch block (only meaningful for kRcm).
  rcm::GridSpec rcm{};

  std::size_t num_cells() const { return width * height; }

  /// Throws InvalidArgument when the combination is unbuildable.
  void validate() const;

  /// One-line summary for reports.
  std::string describe() const;

  /// Field-by-field equality: the key core::GraphSlot holds graphs by.
  bool operator==(const FabricSpec&) const = default;
};

}  // namespace mcfpga::arch
