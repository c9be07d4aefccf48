// Physical model of a reconfigurable-context-memory block (paper Fig. 7):
// a rows x cols array of switch-element sites, stitched by programmable
// switches (P) at track crossings, with input controllers (C) on the
// context-ID inputs.
//
// The grid provides capacity accounting and placement for synthesized
// decoder networks: each DecoderSe occupies one SE site, each gater
// consumes track crossings, and each complemented ID input consumes an
// input controller.  Placement fails (throws FlowError) when the block is
// out of SE sites, crossings, or controllers — this is how the CAD flow
// discovers that a switch block's RCM is over capacity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rcm/decoder_synth.hpp"

namespace mcfpga::rcm {

struct GridSpec {
  std::size_t rows = 8;
  std::size_t cols = 8;
  /// Programmable track crossings available (Fig. 7b).  The default models
  /// one crossing per SE site boundary.
  std::size_t crossings = 0;  // 0 -> derived as (rows+1)*(cols+1)
  /// Input controllers available (Fig. 7c).  The default models one per
  /// column, matching the figure's top-edge controller row.
  std::size_t input_controllers = 0;  // 0 -> derived as cols

  std::size_t derived_crossings() const {
    return crossings != 0 ? crossings : (rows + 1) * (cols + 1);
  }
  std::size_t derived_input_controllers() const {
    return input_controllers != 0 ? input_controllers : cols;
  }

  bool operator==(const GridSpec&) const = default;
};

class RcmGrid {
 public:
  explicit RcmGrid(GridSpec spec);

  std::size_t se_capacity() const { return spec_.rows * spec_.cols; }
  std::size_t se_used() const { return se_used_; }
  std::size_t se_free() const { return se_capacity() - se_used_; }
  std::size_t crossings_used() const { return crossings_used_; }
  std::size_t input_controllers_used() const { return controllers_used_; }
  const GridSpec& spec() const { return spec_; }

  /// Places a decoder network into free SE sites.  Returns an instance
  /// handle for functional queries.  Throws FlowError when any resource
  /// (SE sites, crossings, controllers) would be exceeded.
  std::size_t place(DecoderNetwork network, std::string name);

  std::size_t num_instances() const { return instances_.size(); }
  const std::string& instance_name(std::size_t id) const;
  const DecoderNetwork& instance_network(std::size_t id) const;
  /// SE sites (row-major indices) assigned to the instance.
  const std::vector<std::size_t>& instance_sites(std::size_t id) const;

  /// Generated configuration bit of instance `id` in `context`.
  bool instance_output(std::size_t id, std::size_t context) const;

  /// Fraction of SE sites in use, for utilization reports.
  double utilization() const;

 private:
  struct Instance {
    std::string name;
    DecoderNetwork network;
    std::vector<std::size_t> sites;
  };

  GridSpec spec_;
  std::size_t se_used_ = 0;
  std::size_t crossings_used_ = 0;
  std::size_t controllers_used_ = 0;
  std::vector<Instance> instances_;
};

}  // namespace mcfpga::rcm
