// Multi-context data-flow graphs (paper Sec. 4, Figs. 13-14).
//
// A Dfg is one context's combinational netlist: primary inputs plus
// truth-table ("LUT operation") nodes, with designated primary outputs.
// A MultiContextNetlist holds one Dfg per context; primary inputs are
// matched across contexts BY NAME, which is what makes cross-context node
// sharing (Fig. 14's O2/O3 -> O5 merge) well defined.
//
// Nodes must be added fanin-first, so node order is a topological order by
// construction; validate() re-checks every structural invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.hpp"

namespace mcfpga::netlist {

using NodeRef = std::int32_t;
constexpr NodeRef kNoNode = -1;

enum class NodeType : std::uint8_t {
  kPrimaryInput,
  kLutOp,
};

struct DfgNode {
  NodeType type = NodeType::kLutOp;
  std::string name;
  std::vector<NodeRef> fanins;  ///< Empty for primary inputs.
  /// Truth table over the fanins: bit at address a = output when fanin i
  /// carries bit i of a.  Size 2^fanins.size().  Empty for primary inputs.
  BitVector truth_table;
};

struct DfgOutput {
  NodeRef node = kNoNode;
  std::string name;
};

class Dfg {
 public:
  NodeRef add_input(std::string name);
  /// Adds a LUT operation; all fanins must already exist.
  NodeRef add_lut(std::string name, std::vector<NodeRef> fanins,
                  BitVector truth_table);
  void mark_output(NodeRef node, std::string name);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_lut_ops() const { return nodes_.size() - num_inputs_; }
  const DfgNode& node(NodeRef id) const;
  const std::vector<DfgNode>& nodes() const { return nodes_; }
  const std::vector<DfgOutput>& outputs() const { return outputs_; }

  /// Largest fanin arity over all LUT ops.
  std::size_t max_arity() const;
  /// Logic depth: LUT ops on the longest input-to-output path.
  std::size_t depth() const;

  /// Re-checks all invariants; throws InvalidArgument on violation.
  void validate() const;

 private:
  std::vector<DfgNode> nodes_;
  std::vector<DfgOutput> outputs_;
  std::size_t num_inputs_ = 0;
};

/// One Dfg per context.  Input names are the cross-context identity.
class MultiContextNetlist {
 public:
  /// Default: a single empty context (placeholder for later assignment).
  MultiContextNetlist() : contexts_(1) {}
  explicit MultiContextNetlist(std::size_t num_contexts);
  /// Takes ownership of already-built contexts (at least one).
  explicit MultiContextNetlist(std::vector<Dfg> contexts);

  std::size_t num_contexts() const { return contexts_.size(); }
  Dfg& context(std::size_t c);
  const Dfg& context(std::size_t c) const;

  /// Union of primary-input names over all contexts, in first-seen order.
  std::vector<std::string> all_input_names() const;
  /// Union of primary-output names over all contexts, in first-seen order.
  std::vector<std::string> all_output_names() const;

  /// Totals across contexts (for reports).
  std::size_t total_lut_ops() const;

  void validate() const;

 private:
  std::vector<Dfg> contexts_;
};

}  // namespace mcfpga::netlist
