// Single-field flips over core/fields.hpp's list, shared by the tests that
// must cover every compile input: the cache key, the held routing graph,
// the delta path's options check and the daemon's request codec.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/fields.hpp"

namespace mcfpga::fieldtest {

/// Moves one value to another of its type: an integer +1, a double x2
/// plus 0.5 (so a zero moves too), a flag negated, an enum to its next
/// word.
template <typename T>
void flip_value(T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<T>) {
    value = static_cast<T>((static_cast<std::size_t>(value) + 1) %
                           core::field_words(value).size());
  } else if constexpr (std::is_floating_point_v<T>) {
    value = value * 2 + 0.5;
  } else {
    ++value;
  }
}

/// One single-field change of a compile's inputs.
struct FieldFlip {
  std::string name;  ///< Dotted, as on the list ("fabric.width").
  core::Effect effect = core::Effect::kResult;
  arch::FabricSpec spec;
  core::CompileOptions options;
};

/// Calls `check(flip)` once per listed field, in list order, with that
/// field (and only it) flipped in copies of `spec` and `options`.  A flip
/// may leave the spec invalid (a context count alone, an odd
/// double-length track count).
template <typename Check>
void for_each_field_flip(const arch::FabricSpec& spec,
                         const core::CompileOptions& options,
                         Check&& check) {
  std::size_t fields = 0;
  core::visit_compile_fields(
      spec, options,
      [&](std::string_view, const auto&,
          core::Effect = core::Effect::kResult) { ++fields; });
  for (std::size_t target = 0; target < fields; ++target) {
    FieldFlip flip{"", core::Effect::kResult, spec, options};
    std::size_t index = 0;
    core::visit_compile_fields(
        flip.spec, flip.options,
        [&](std::string_view name, auto& value,
            core::Effect effect = core::Effect::kResult) {
          if (index++ == target) {
            flip.name = name;
            flip.effect = effect;
            flip_value(value);
          }
        });
    check(flip);
  }
}

}  // namespace mcfpga::fieldtest
