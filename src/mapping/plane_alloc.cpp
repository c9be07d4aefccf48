#include "mapping/plane_alloc.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::mapping {

namespace {

struct ModeFit {
  lut::LutMode mode;
  std::size_t used_bits = 0;
  std::size_t duplicated_bits = 0;
};

std::size_t log2_exact(std::size_t v) {
  return static_cast<std::size_t>(std::countr_zero(v));
}

/// The planes `contexts` occupy under `p`-plane selection as a bit mask:
/// bit (c mod p) for every context c.  p is at most 64.
std::uint64_t plane_mask(const std::vector<std::size_t>& contexts,
                         std::size_t p) {
  std::uint64_t mask = 0;
  for (const std::size_t c : contexts) {
    mask |= std::uint64_t{1} << (c & (p - 1));
  }
  return mask;
}

/// One (slot, candidate use) probe: the slot's entries, read in place,
/// plus the use that would join them.  Mode-independent facts are computed
/// once per probe; try_mode then tests each plane count against them.
class Probe {
 public:
  /// `pins` is caller-owned scratch, reused across probes.
  Probe(const std::vector<SlotEntry>& entries, const ClassUse& use,
        std::vector<std::size_t>& pins)
      : entries_(entries), use_(use) {
    // The slot's entries share the LUT's physical input pins, so the
    // union of their fanin signals must fit the mode's input count.
    pins.clear();
    const auto add_pins = [&pins](const ClassUse& u) {
      for (const std::size_t f : u.fanin_classes) {
        if (std::find(pins.begin(), pins.end(), f) == pins.end()) {
          pins.push_back(f);
        }
      }
    };
    for (const SlotEntry& e : entries_) {
      add_pins(e.use);
      max_arity_ = std::max(max_arity_, e.use.arity);
    }
    add_pins(use_);
    max_arity_ = std::max(max_arity_, use_.arity);
    num_pins_ = pins.size();
  }

  /// Tests whether the entries and the use can cohabit one slot in a
  /// `p`-plane mode.
  std::optional<ModeFit> try_mode(std::size_t base_inputs,
                                  std::size_t num_contexts,
                                  std::size_t p) const {
    const std::size_t k =
        base_inputs + log2_exact(num_contexts) - log2_exact(p);
    if (num_pins_ > k || max_arity_ > k) {
      return std::nullopt;
    }
    ModeFit fit;
    fit.mode = lut::LutMode{k, p};
    const std::size_t table_bits = std::size_t{1} << k;
    std::uint64_t claimed = 0;
    const auto claim = [&](const ClassUse& u) {
      const std::uint64_t planes = plane_mask(u.contexts, p);
      if ((planes & claimed) != 0) {
        return false;  // plane already taken by another class
      }
      claimed |= planes;
      const auto count = static_cast<std::size_t>(std::popcount(planes));
      fit.used_bits += count * table_bits;
      fit.duplicated_bits += (count - 1) * table_bits;
      return true;
    };
    for (const SlotEntry& e : entries_) {
      if (!claim(e.use)) {
        return std::nullopt;
      }
    }
    if (!claim(use_)) {
      return std::nullopt;
    }
    return fit;
  }

 private:
  const std::vector<SlotEntry>& entries_;
  const ClassUse& use_;
  std::size_t num_pins_ = 0;
  std::size_t max_arity_ = 0;
};

/// All plane counts, largest first (most packing opportunity first).
std::vector<std::size_t> plane_options(std::size_t num_contexts) {
  std::vector<std::size_t> opts;
  for (std::size_t p = num_contexts; p >= 1; p /= 2) {
    opts.push_back(p);
    if (p == 1) {
      break;
    }
  }
  return opts;
}

/// Adds `use` to `slot` under `fit`, re-deriving every entry's planes.
void apply_fit(Slot& slot, const ClassUse& use, const ModeFit& fit) {
  slot.entries.push_back(SlotEntry{use, {}});
  slot.mode = fit.mode;
  slot.used_bits = fit.used_bits;
  slot.duplicated_bits = fit.duplicated_bits;
  for (SlotEntry& e : slot.entries) {
    e.planes = planes_of(e.use.contexts, fit.mode.planes);
  }
}

}  // namespace

std::vector<std::size_t> planes_of(const std::vector<std::size_t>& contexts,
                                   std::size_t planes) {
  std::vector<std::size_t> out;
  out.reserve(contexts.size());
  for (const std::size_t c : contexts) {
    out.push_back(c & (planes - 1));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t PlaneAllocation::used_bits() const {
  std::size_t n = 0;
  for (const auto& s : slots) {
    n += s.used_bits;
  }
  return n;
}

std::size_t PlaneAllocation::duplicated_bits() const {
  std::size_t n = 0;
  for (const auto& s : slots) {
    n += s.duplicated_bits;
  }
  return n;
}

std::size_t PlaneAllocation::budget_bits(std::size_t base_inputs,
                                         std::size_t num_contexts) const {
  return slots.size() * ((std::size_t{1} << base_inputs) * num_contexts);
}

std::size_t PlaneAllocation::controller_se_cost() const {
  if (control == lut::SizeControl::kGlobal) {
    return 0;
  }
  std::size_t n = 0;
  for (const auto& s : slots) {
    n += log2_exact(s.mode.planes);
  }
  return n;
}

PlaneAllocation allocate_planes(const std::vector<ClassUse>& uses,
                                std::size_t base_inputs,
                                std::size_t num_contexts,
                                lut::SizeControl control) {
  MCFPGA_REQUIRE(config::is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
  PlaneAllocation alloc;
  alloc.control = control;

  // Shared-first, fat-first packing order.
  std::vector<const ClassUse*> order;
  order.reserve(uses.size());
  for (const ClassUse& use : uses) {
    order.push_back(&use);
  }
  std::sort(order.begin(), order.end(),
            [](const ClassUse* a, const ClassUse* b) {
              if (a->contexts.size() != b->contexts.size()) {
                return a->contexts.size() > b->contexts.size();
              }
              if (a->arity != b->arity) {
                return a->arity > b->arity;
              }
              return a->cls < b->cls;
            });

  const std::vector<std::size_t> opts = plane_options(num_contexts);

  // Under global control every slot shares one fabric-wide mode: the most
  // finely-planed mode whose input count still fits the fattest class
  // (Fig. 13's J signal).
  std::optional<std::size_t> global_p;
  if (control == lut::SizeControl::kGlobal) {
    std::size_t max_arity = 0;
    for (const auto& u : uses) {
      max_arity = std::max(max_arity, u.arity);
    }
    for (const std::size_t p : opts) {
      const std::size_t k =
          base_inputs + log2_exact(num_contexts) - log2_exact(p);
      if (k >= max_arity) {
        global_p = p;
        break;
      }
    }
    if (!global_p) {
      throw FlowError("plane allocation: a class of arity " +
                      std::to_string(max_arity) +
                      " exceeds even the single-plane LUT size");
    }
  }

  // The plane counts a slot may take: the one fabric-wide mode under
  // global control, every mode (largest first) under local control.
  const std::vector<std::size_t> modes =
      global_p ? std::vector<std::size_t>{*global_p} : opts;
  std::vector<std::size_t> pins;  // Probe scratch, reused
  const std::vector<SlotEntry> no_entries;
  for (const ClassUse* next : order) {
    const ClassUse& use = *next;
    bool placed = false;
    for (std::size_t s = 0; s < alloc.slots.size() && !placed; ++s) {
      Slot& slot = alloc.slots[s];
      const Probe probe(slot.entries, use, pins);
      for (const std::size_t p : modes) {
        if (const auto fit = probe.try_mode(base_inputs, num_contexts, p)) {
          apply_fit(slot, use, *fit);
          alloc.slot_of_class[use.cls] = s;
          placed = true;
          break;
        }
      }
    }
    if (placed) {
      continue;
    }
    // Open a new slot.  Prefer the mode with zero duplication and the most
    // spare planes: the largest p that maps all of this class's contexts to
    // one plane; fall back to the largest feasible p.
    const Probe probe(no_entries, use, pins);
    std::optional<ModeFit> fit;
    std::optional<ModeFit> fallback;
    for (const std::size_t p : modes) {
      const auto f = probe.try_mode(base_inputs, num_contexts, p);
      if (!f) {
        continue;
      }
      if (!fallback) {
        fallback = f;
      }
      if (f->duplicated_bits == 0) {
        fit = f;
        break;
      }
    }
    if (!fit) {
      fit = fallback;
    }
    if (!fit) {
      throw FlowError("plane allocation: class of arity " +
                      std::to_string(use.arity) +
                      " does not fit any LUT mode");
    }
    Slot slot;
    apply_fit(slot, use, *fit);
    alloc.slot_of_class[use.cls] = alloc.slots.size();
    alloc.slots.push_back(std::move(slot));
  }
  return alloc;
}

}  // namespace mcfpga::mapping
