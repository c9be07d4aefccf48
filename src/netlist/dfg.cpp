#include "netlist/dfg.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace mcfpga::netlist {

NodeRef Dfg::add_input(std::string name) {
  MCFPGA_REQUIRE(num_inputs_ == nodes_.size(),
                 "primary inputs must be added before LUT operations");
  DfgNode n;
  n.type = NodeType::kPrimaryInput;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  ++num_inputs_;
  return static_cast<NodeRef>(nodes_.size() - 1);
}

NodeRef Dfg::add_lut(std::string name, std::vector<NodeRef> fanins,
                     BitVector truth_table) {
  MCFPGA_REQUIRE(!fanins.empty(), "a LUT operation needs at least one fanin");
  MCFPGA_REQUIRE(fanins.size() <= 16, "fanin arity limited to 16");
  for (const NodeRef f : fanins) {
    MCFPGA_REQUIRE(f >= 0 && static_cast<std::size_t>(f) < nodes_.size(),
                   "fanin must reference an existing node");
  }
  MCFPGA_REQUIRE(truth_table.size() == (std::size_t{1} << fanins.size()),
                 "truth table must have 2^arity bits");
  DfgNode n;
  n.type = NodeType::kLutOp;
  n.name = std::move(name);
  n.fanins = std::move(fanins);
  n.truth_table = std::move(truth_table);
  nodes_.push_back(std::move(n));
  return static_cast<NodeRef>(nodes_.size() - 1);
}

void Dfg::mark_output(NodeRef node, std::string name) {
  MCFPGA_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < nodes_.size(),
                 "output must reference an existing node");
  outputs_.push_back(DfgOutput{node, std::move(name)});
}

const DfgNode& Dfg::node(NodeRef id) const {
  MCFPGA_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                 "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

std::size_t Dfg::max_arity() const {
  std::size_t a = 0;
  for (const auto& n : nodes_) {
    a = std::max(a, n.fanins.size());
  }
  return a;
}

std::size_t Dfg::depth() const {
  std::vector<std::size_t> level(nodes_.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].type == NodeType::kLutOp) {
      std::size_t in_level = 0;
      for (const NodeRef f : nodes_[i].fanins) {
        in_level = std::max(in_level, level[static_cast<std::size_t>(f)]);
      }
      level[i] = in_level + 1;
      deepest = std::max(deepest, level[i]);
    }
  }
  return deepest;
}

void Dfg::validate() const {
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    MCFPGA_REQUIRE(!n.name.empty(), "node names must be non-empty");
    MCFPGA_REQUIRE(names.insert(n.name).second,
                   "node names must be unique within a context");
    if (n.type == NodeType::kPrimaryInput) {
      MCFPGA_REQUIRE(i < num_inputs_, "inputs must precede LUT ops");
      MCFPGA_REQUIRE(n.fanins.empty() && n.truth_table.empty(),
                     "inputs carry no fanins or truth table");
    } else {
      MCFPGA_REQUIRE(
          n.truth_table.size() == (std::size_t{1} << n.fanins.size()),
          "truth table size must be 2^arity");
      for (const NodeRef f : n.fanins) {
        MCFPGA_REQUIRE(static_cast<std::size_t>(f) < i,
                       "fanins must precede their user (topological order)");
      }
    }
  }
  for (const auto& out : outputs_) {
    MCFPGA_REQUIRE(
        out.node >= 0 && static_cast<std::size_t>(out.node) < nodes_.size(),
        "output references a missing node");
  }
}

MultiContextNetlist::MultiContextNetlist(std::size_t num_contexts)
    : contexts_(num_contexts) {
  MCFPGA_REQUIRE(num_contexts >= 1, "need at least one context");
}

MultiContextNetlist::MultiContextNetlist(std::vector<Dfg> contexts)
    : contexts_(std::move(contexts)) {
  MCFPGA_REQUIRE(!contexts_.empty(), "need at least one context");
}

Dfg& MultiContextNetlist::context(std::size_t c) {
  MCFPGA_REQUIRE(c < contexts_.size(), "context out of range");
  return contexts_[c];
}

const Dfg& MultiContextNetlist::context(std::size_t c) const {
  MCFPGA_REQUIRE(c < contexts_.size(), "context out of range");
  return contexts_[c];
}

std::vector<std::string> MultiContextNetlist::all_input_names() const {
  std::vector<std::string> names;
  std::unordered_set<std::string> seen;
  for (const auto& dfg : contexts_) {
    for (const auto& n : dfg.nodes()) {
      if (n.type == NodeType::kPrimaryInput && seen.insert(n.name).second) {
        names.push_back(n.name);
      }
    }
  }
  return names;
}

std::vector<std::string> MultiContextNetlist::all_output_names() const {
  std::vector<std::string> names;
  std::unordered_set<std::string> seen;
  for (const auto& dfg : contexts_) {
    for (const auto& out : dfg.outputs()) {
      if (seen.insert(out.name).second) {
        names.push_back(out.name);
      }
    }
  }
  return names;
}

std::size_t MultiContextNetlist::total_lut_ops() const {
  std::size_t n = 0;
  for (const auto& dfg : contexts_) {
    n += dfg.num_lut_ops();
  }
  return n;
}

void MultiContextNetlist::validate() const {
  for (const auto& dfg : contexts_) {
    dfg.validate();
  }
}

}  // namespace mcfpga::netlist
