// Multi-context bitstream container.
//
// A Bitstream is the set of configuration bits of a fabric across all
// contexts: one ContextPattern per configuration bit ("row", in the language
// of the paper's Table 1), tagged with the resource that owns it.  Both the
// conventional fabric (which stores every row in n memory bits) and the
// proposed fabric (which synthesizes each row into switch elements) consume
// the same Bitstream, so the two area evaluations are guaranteed to describe
// the same design.
//
// Rows are copy-on-write: copying a Bitstream shares its row storage (a
// refcount bump, however many rows), and add_row()/append() clone the
// storage only when another Bitstream still shares it.  A design-cache hit
// therefore hands out a design's bitstream without copying a row.  Shared
// storage is never mutated, so copies may be read from several threads.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "config/pattern.hpp"

namespace mcfpga::config {

/// What kind of fabric resource a configuration bit controls.
enum class ResourceKind {
  kRoutingSwitch,  ///< Pass-gate in a switch block / diamond switch.
  kLutBit,         ///< One truth-table bit of a logic-block LUT plane.
  kControlBit,     ///< LB size-controller / misc control configuration.
};

std::string to_string(ResourceKind kind);

/// One configuration bit and its values across contexts.
struct BitstreamRow {
  std::string name;  ///< e.g. "sb(3,4).G9" or "lb(1,2).lut0[13]".
  ResourceKind kind = ResourceKind::kRoutingSwitch;
  ContextPattern pattern;
};

class Bitstream {
 public:
  /// Default: an empty 2-context bitstream (placeholder for assignment).
  Bitstream() : num_contexts_(2) {}
  explicit Bitstream(std::size_t num_contexts);

  std::size_t num_contexts() const { return num_contexts_; }
  std::size_t num_rows() const { return rows().size(); }
  bool empty() const { return rows().empty(); }

  /// Appends a row; its pattern must span exactly num_contexts() contexts.
  /// Returns the row index.
  std::size_t add_row(std::string name, ResourceKind kind,
                      ContextPattern pattern);

  const BitstreamRow& row(std::size_t index) const;
  const std::vector<BitstreamRow>& rows() const {
    return rows_ ? *rows_ : kNoRows;
  }

  /// True when both bitstreams read the same (non-empty) row storage.
  bool shares_rows_with(const Bitstream& other) const {
    return rows_ != nullptr && rows_ == other.rows_;
  }

  /// Number of rows of a given resource kind.
  std::size_t count_kind(ResourceKind kind) const;

  /// The full configuration plane of one context: bit i = value of row i.
  BitVector plane(std::size_t context) const;

  /// Concatenates another bitstream's rows (context counts must match).
  void append(const Bitstream& other);

 private:
  /// The row storage, cloned first when another Bitstream shares it.
  std::vector<BitstreamRow>& writable_rows();

  static const std::vector<BitstreamRow> kNoRows;

  std::size_t num_contexts_;
  /// Null until the first row; shared between copies.
  std::shared_ptr<std::vector<BitstreamRow>> rows_;
};

}  // namespace mcfpga::config
