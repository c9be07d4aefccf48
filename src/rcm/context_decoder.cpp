#include "rcm/context_decoder.hpp"

#include <cstdint>
#include <unordered_map>

#include "common/error.hpp"

namespace mcfpga::rcm {

ContextDecoder::ContextDecoder(const config::Bitstream& bitstream,
                               ContextDecoderOptions options)
    : num_contexts_(bitstream.num_contexts()) {
  row_to_network_.reserve(bitstream.num_rows());
  std::unordered_map<std::uint64_t, std::size_t> seen;

  for (const auto& row : bitstream.rows()) {
    if (options.share_identical_patterns) {
      const auto it = seen.find(row.pattern.word());
      if (it != seen.end()) {
        row_to_network_.push_back(it->second);
        ++shared_taps_;
        continue;
      }
    }
    networks_.push_back(synthesize_decoder(row.pattern));
    const std::size_t id = networks_.size() - 1;
    row_to_network_.push_back(id);
    if (options.share_identical_patterns) {
      seen.emplace(row.pattern.word(), id);
    }
  }
}

bool ContextDecoder::output(std::size_t row, std::size_t context) const {
  MCFPGA_REQUIRE(row < row_to_network_.size(), "row out of range");
  MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
  return networks_[row_to_network_[row]].eval(context);
}

BitVector ContextDecoder::decode_plane(std::size_t context) const {
  BitVector plane(row_to_network_.size());
  for (std::size_t row = 0; row < row_to_network_.size(); ++row) {
    plane.set(row, output(row, context));
  }
  return plane;
}

std::size_t ContextDecoder::total_se_count() const {
  std::size_t n = 0;
  for (const auto& net : networks_) {
    n += net.se_count();
  }
  return n;
}

std::size_t ContextDecoder::total_input_controllers() const {
  std::size_t n = 0;
  for (const auto& net : networks_) {
    n += net.input_controller_count();
  }
  return n;
}

std::size_t ContextDecoder::total_programmable_switches() const {
  std::size_t n = 0;
  for (const auto& net : networks_) {
    n += net.programmable_switch_count();
  }
  return n;
}

std::size_t ContextDecoder::max_depth() const {
  std::size_t d = 0;
  for (const auto& net : networks_) {
    d = std::max(d, net.depth());
  }
  return d;
}

const DecoderNetwork& ContextDecoder::network_for_row(std::size_t row) const {
  MCFPGA_REQUIRE(row < row_to_network_.size(), "row out of range");
  return networks_[row_to_network_[row]];
}

bool ContextDecoder::matches(const config::Bitstream& bitstream) const {
  if (bitstream.num_rows() != row_to_network_.size() ||
      bitstream.num_contexts() != num_contexts_) {
    return false;
  }
  for (std::size_t c = 0; c < num_contexts_; ++c) {
    if (decode_plane(c) != bitstream.plane(c)) {
      return false;
    }
  }
  return true;
}

}  // namespace mcfpga::rcm
