#include "core/graph_slot.hpp"

#include <algorithm>
#include <utility>

namespace mcfpga::core {

std::shared_ptr<const arch::RoutingGraph> GraphSlot::find_locked(
    const arch::FabricSpec& spec) {
  const auto it = std::find_if(held_.begin(), held_.end(), [&](const auto& g) {
    return g != nullptr && g->spec() == spec;
  });
  if (it == held_.end()) {
    return nullptr;
  }
  std::rotate(held_.begin(), it, it + 1);
  return held_.front();
}

std::shared_ptr<const arch::RoutingGraph> GraphSlot::acquire(
    const arch::FabricSpec& spec) {
  // Declared before every lock below, so whatever graph they hold is
  // freed after the lock is released.
  std::shared_ptr<const arch::RoutingGraph> released;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (auto held = find_locked(spec)) {
      return held;
    }
    released = std::move(held_.back());
  }
  released.reset();
  auto built = std::make_shared<const arch::RoutingGraph>(spec);

  const std::lock_guard<std::mutex> lock(mu_);
  ++builds_;
  if (auto stored = find_locked(spec)) {
    return stored;  // another thread missed on this spec and stored first
  }
  released = std::move(held_.back());
  std::move_backward(held_.begin(), held_.end() - 1, held_.end());
  held_.front() = built;
  return built;
}

std::size_t GraphSlot::builds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

}  // namespace mcfpga::core
