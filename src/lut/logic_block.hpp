// Adaptive multi-context logic block (paper Sec. 4, Figs. 13-14).
//
// A logic block wraps one MCMG-LUT (possibly multi-output) plus output
// flip-flops and a granularity ("size") controller:
//
//  * kGlobal control (Fig. 13): one fabric-wide signal J fixes every logic
//    block to the same (inputs, planes) mode.  Zero per-block controller
//    cost, but configuration data shared between contexts must be stored
//    once per plane — redundantly.
//  * kLocal control (Fig. 14): each block picks its own mode.  The
//    controller is built from RCM switch elements, so it costs a handful of
//    SEs — and only when the block actually uses multiple planes.
#pragma once

#include <cstddef>
#include <string>

#include "lut/mcmg_lut.hpp"

namespace mcfpga::lut {

enum class SizeControl {
  kGlobal,  ///< Fig. 13: fabric-wide granularity signal.
  kLocal,   ///< Fig. 14: per-block RCM-built size controller.
};

std::string to_string(SizeControl control);

struct LogicBlockSpec {
  std::size_t base_inputs = 4;
  std::size_t num_contexts = 4;
  std::size_t num_outputs = 2;
  SizeControl control = SizeControl::kLocal;

  bool operator==(const LogicBlockSpec&) const = default;
};

class LogicBlock {
 public:
  explicit LogicBlock(LogicBlockSpec spec);

  const LogicBlockSpec& spec() const { return spec_; }
  McmgLut& lut() { return lut_; }
  const McmgLut& lut() const { return lut_; }

  /// Sets the granularity.  Under kGlobal control the caller (the fabric)
  /// is responsible for applying the same mode everywhere; this class only
  /// records it.
  void set_granularity(LutMode mode) { lut_.set_mode(mode); }

  /// SE cost of the local size controller in the current mode: one SE per
  /// steered context-ID bit, and zero when the block runs a single plane
  /// (the paper: the controller "is only required when there are different
  /// configuration planes").  Always zero under global control.
  std::size_t controller_se_cost() const;

  /// Combinational evaluation of one output.
  bool eval(std::size_t output, const BitVector& inputs,
            std::size_t context) const {
    return lut_.eval(output, inputs, context);
  }

  /// Flip-flops on the outputs (one per output; registered outputs hold
  /// values across context switches — the DPGA execution model).
  std::size_t num_flip_flops() const { return spec_.num_outputs; }

 private:
  LogicBlockSpec spec_;
  McmgLut lut_;
};

}  // namespace mcfpga::lut
