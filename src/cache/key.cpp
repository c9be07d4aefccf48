#include "cache/key.hpp"

#include <string_view>
#include <type_traits>

#include "common/hash.hpp"
#include "core/fields.hpp"

namespace mcfpga::cache {

using common::Hasher;

std::uint64_t hash_dfg(const netlist::Dfg& dfg) {
  Hasher h;
  h.size(dfg.num_nodes());
  for (const netlist::DfgNode& node : dfg.nodes()) {
    h.u64(static_cast<std::uint64_t>(node.type));
    h.str(node.name);
    h.size(node.fanins.size());
    for (const netlist::NodeRef fanin : node.fanins) {
      h.i64(fanin);
    }
    h.bits(node.truth_table);
  }
  h.size(dfg.outputs().size());
  for (const netlist::DfgOutput& output : dfg.outputs()) {
    h.i64(output.node);
    h.str(output.name);
  }
  return h.digest();
}

std::uint64_t hash_netlist(const netlist::MultiContextNetlist& netlist) {
  Hasher h;
  h.size(netlist.num_contexts());
  for (std::size_t c = 0; c < netlist.num_contexts(); ++c) {
    h.u64(hash_dfg(netlist.context(c)));
  }
  return h.digest();
}

namespace {

/// Feeds each listed field's value to a Hasher, skipping the worker
/// counts.
struct FieldHasher {
  Hasher& h;

  template <typename T>
  void operator()(std::string_view, const T& value,
                  core::Effect effect = core::Effect::kResult) const {
    if (effect == core::Effect::kNeutral) {
      return;
    }
    if constexpr (std::is_same_v<T, bool>) {
      h.boolean(value);
    } else if constexpr (std::is_enum_v<T>) {
      h.u64(static_cast<std::uint64_t>(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      h.f64(value);
    } else {
      static_assert(std::is_unsigned_v<T>, "a listed field of a new type");
      h.u64(value);
    }
  }
};

}  // namespace

std::uint64_t flow_base_key(const netlist::MultiContextNetlist& netlist,
                            const arch::FabricSpec& spec,
                            const core::CompileOptions& options) {
  Hasher h;
  h.str("mcfpga-flow-v2").u64(hash_netlist(netlist));
  core::visit_compile_fields(spec, options, FieldHasher{h});
  return h.digest();
}

}  // namespace mcfpga::cache
