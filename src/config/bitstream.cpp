#include "config/bitstream.hpp"

#include <atomic>

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::config {

const std::vector<BitstreamRow> Bitstream::kNoRows;

std::string to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kRoutingSwitch:
      return "routing-switch";
    case ResourceKind::kLutBit:
      return "lut-bit";
    case ResourceKind::kControlBit:
      return "control-bit";
  }
  return "?";
}

Bitstream::Bitstream(std::size_t num_contexts) : num_contexts_(num_contexts) {
  MCFPGA_REQUIRE(is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
}

std::vector<BitstreamRow>& Bitstream::writable_rows() {
  // use_count() == 1 is exact here: another owner could only appear by
  // copying *this, which would race with this (non-const) call anyway.
  if (!rows_) {
    rows_ = std::make_shared<std::vector<BitstreamRow>>();
  } else if (rows_.use_count() > 1) {
    rows_ = std::make_shared<std::vector<BitstreamRow>>(*rows_);
  } else {
    // use_count() is a relaxed load; the fence orders a former sharer's
    // last reads (before its releasing decrement) before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *rows_;
}

std::size_t Bitstream::add_row(std::string name, ResourceKind kind,
                               ContextPattern pattern) {
  MCFPGA_REQUIRE(pattern.num_contexts() == num_contexts_,
                 "row context count must match bitstream context count");
  std::vector<BitstreamRow>& rows = writable_rows();
  rows.push_back(BitstreamRow{std::move(name), kind, std::move(pattern)});
  return rows.size() - 1;
}

const BitstreamRow& Bitstream::row(std::size_t index) const {
  MCFPGA_REQUIRE(index < num_rows(), "row index out of range");
  return rows()[index];
}

std::size_t Bitstream::count_kind(ResourceKind kind) const {
  std::size_t n = 0;
  for (const auto& row : rows()) {
    if (row.kind == kind) {
      ++n;
    }
  }
  return n;
}

BitVector Bitstream::plane(std::size_t context) const {
  MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
  const std::vector<BitstreamRow>& all = rows();
  BitVector plane(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    plane.set(i, all[i].pattern.value_in(context));
  }
  return plane;
}

void Bitstream::append(const Bitstream& other) {
  MCFPGA_REQUIRE(other.num_contexts_ == num_contexts_,
                 "appended bitstream must have the same context count");
  if (other.empty()) {
    return;
  }
  if (empty()) {
    rows_ = other.rows_;  // nothing of ours to keep: share theirs
    return;
  }
  // Copy out first: `other` may share (or be) this storage.
  const std::shared_ptr<std::vector<BitstreamRow>> theirs = other.rows_;
  std::vector<BitstreamRow>& rows = writable_rows();
  rows.insert(rows.end(), theirs->begin(), theirs->end());
}

}  // namespace mcfpga::config
