// The one list of a compile's input fields: every FabricSpec and
// CompileOptions field, once, by dotted name, in one canonical order.  The
// cache key, the daemon's request codec, the delta path's options check
// and the field-flip tests all walk it.
//
// A visit function calls v(name, member) per field of its struct, with
// Effect::kNeutral as a third argument for the two worker counts.  It
// opens with a structured binding naming every data member, so a member
// added without a visit line fails to compile ("only N names provided for
// structured binding").
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "arch/fabric_spec.hpp"
#include "core/flow.hpp"

namespace mcfpga::core {

/// Whether a field's value can change what a compile produces.
enum class Effect : std::uint8_t {
  kResult,   ///< Keyed and compared: another value may give another design.
  kNeutral,  ///< A worker count: results are bit-identical for any value.
};

/// The words naming an enum field's values, indexed by the enumerator's
/// value.
constexpr std::array<std::string_view, 2> field_words(arch::SwitchImpl) {
  return {"conventional", "rcm"};
}
constexpr std::array<std::string_view, 2> field_words(lut::SizeControl) {
  return {"global", "local"};
}
constexpr std::array<std::string_view, 2> field_words(route::QueueMode) {
  return {"binary", "bucket"};
}
constexpr std::array<std::string_view, 2> field_words(
    route::CrossContextMode) {
  return {"off", "interleaved"};
}

/// `S` is `T` or `const T`: one visit function serves readers and writers.
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

template <FieldsOf<lut::LogicBlockSpec> S, typename V>
void visit_fields(S& block, V&& v) {
  auto& [base_inputs, num_contexts, num_outputs, control] = block;
  v("fabric.logic_block.base_inputs", base_inputs);
  v("fabric.logic_block.num_contexts", num_contexts);
  v("fabric.logic_block.num_outputs", num_outputs);
  v("fabric.logic_block.control", control);
}

template <FieldsOf<arch::FabricSpec> S, typename V>
void visit_fields(S& spec, V&& v) {
  auto& [width, height, num_contexts, logic_block, channel_width,
         double_length_tracks, switch_impl] = spec;
  v("fabric.width", width);
  v("fabric.height", height);
  v("fabric.num_contexts", num_contexts);
  visit_fields(logic_block, v);
  v("fabric.channel_width", channel_width);
  v("fabric.double_length_tracks", double_length_tracks);
  v("fabric.switch_impl", switch_impl);
}

template <FieldsOf<place::PlacerOptions> S, typename V>
void visit_fields(S& placer, V&& v) {
  auto& [seed, sweeps, initial_temperature_factor, incremental, num_restarts,
         num_threads, timing_mode] = placer;
  v("placer.seed", seed);
  v("placer.sweeps", sweeps);
  v("placer.initial_temperature_factor", initial_temperature_factor);
  v("placer.incremental", incremental);
  v("placer.num_restarts", num_restarts);
  v("placer.num_threads", num_threads, Effect::kNeutral);
  v("placer.timing_mode", timing_mode);
}

template <FieldsOf<route::RouterOptions> S, typename V>
void visit_fields(S& router, V&& v) {
  auto& [prefer_double_length, num_threads, timing_mode, schedule,
         cross_context_mode, queue_mode] = router;
  auto& [start, step, max] = schedule;
  v("router.prefer_double_length", prefer_double_length);
  v("router.num_threads", num_threads, Effect::kNeutral);
  v("router.timing_mode", timing_mode);
  v("router.criticality_exponent_schedule.start", start);
  v("router.criticality_exponent_schedule.step", step);
  v("router.criticality_exponent_schedule.max", max);
  v("router.cross_context_mode", cross_context_mode);
  v("router.queue_mode", queue_mode);
}

template <FieldsOf<sim::DelayParams> S, typename V>
void visit_fields(S& delay, V&& v) {
  auto& [se_delay, lut_delay] = delay;
  v("delay.se_delay", se_delay);
  v("delay.lut_delay", lut_delay);
}

template <FieldsOf<CompileOptions> S, typename V>
void visit_fields(S& options, V&& v) {
  auto& [seed, placer, router, delay, auto_size, closure_iterations] =
      options;
  v("seed", seed);
  visit_fields(placer, v);
  visit_fields(router, v);
  visit_fields(delay, v);
  v("auto_size", auto_size);
  v("closure_iterations", closure_iterations);
}

/// Every field of a compile's inputs, in list order: the fabric's, then
/// the options'.
template <FieldsOf<arch::FabricSpec> Spec,
          FieldsOf<CompileOptions> Options, typename V>
void visit_compile_fields(Spec& spec, Options& options, V&& v) {
  visit_fields(spec, v);
  visit_fields(options, v);
}

}  // namespace mcfpga::core
