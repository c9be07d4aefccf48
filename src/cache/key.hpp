// Canonical content keys for the design cache.
//
// A compiled design is addressed by one 64-bit digest of the inputs that
// determine it: the multi-context DFG (structure, names, truth tables),
// the fabric spec, and the compile options.  The key covers every field
// that can change a compile result, so any change to an input is a new
// key and a full compile (tests/test_cache.cpp flips every field).
//
// Worker-count knobs (placer/router num_threads) are deliberately NOT
// hashed: the placer and router contract is bit-identical results for any
// thread count, so a design compiled with 8 workers is a legitimate cache
// hit for the same design compiled with 1.
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

/// Digest of every FabricSpec field that shapes the routing graph, the
/// logic blocks, or the bitstream layout.
std::uint64_t hash_fabric_spec(const arch::FabricSpec& spec);

/// Digest of every CompileOptions field that can change a compile result.
/// Excludes placer.num_threads and router.num_threads (see file comment).
std::uint64_t hash_compile_options(const core::CompileOptions& options);

/// The key of a compile: netlist x spec x options.
std::uint64_t flow_base_key(const netlist::MultiContextNetlist& netlist,
                            const arch::FabricSpec& spec,
                            const core::CompileOptions& options);

}  // namespace mcfpga::cache
