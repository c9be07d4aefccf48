// Canonical content keys for the design cache.
//
// A compiled design is addressed by one 64-bit digest of the inputs that
// determine it: the multi-context DFG (structure, names, truth tables),
// then every field of the fabric spec and the compile options, walked
// through core/fields.hpp's list.  The list names every field, so any
// change to an input is a new key and a full compile
// (tests/test_cache.cpp flips each listed field in turn).
//
// The two worker counts (placer/router num_threads), which the list marks
// result-neutral, are deliberately NOT hashed: the placer and router
// contract is bit-identical results for any thread count, so a design
// compiled with 8 workers is a legitimate cache hit for the same design
// compiled with 1.
#pragma once

#include <cstdint>

#include "core/flow.hpp"

namespace mcfpga::cache {

/// Digest of one context's DFG: node types, names, fanin wiring, truth
/// tables, and the designated outputs, in node order.
std::uint64_t hash_dfg(const netlist::Dfg& dfg);

/// Digest of the whole multi-context netlist (context count + per-context
/// DFG digests, in context order).
std::uint64_t hash_netlist(const netlist::MultiContextNetlist& netlist);

/// The key of a compile: netlist x spec x options.
std::uint64_t flow_base_key(const netlist::MultiContextNetlist& netlist,
                            const arch::FabricSpec& spec,
                            const core::CompileOptions& options);

}  // namespace mcfpga::cache
