// Monotone bucket ("calendar") priority queue for maze expansion.
//
// PathFinder's Dijkstra pops costs in non-decreasing order, and every
// relaxation adds a bounded, strictly positive increment — sums of small
// base costs, history increments, and criticality-scaled delay steps.
// That is Dial's regime: quantize costs onto an array of buckets of width
// `quantum`, pop from the lowest non-empty bucket, and each push/pop is
// O(1) instead of the binary heap's O(log n) compare-and-swap chain over
// scattered memory.
//
// Exactness: while quantum <= the smallest relaxation increment, every
// relaxation out of the current bucket lands in a strictly later bucket,
// so all items in the current bucket already carry their final distance
// and may be popped in any fixed order — the classic Dial argument.  The
// router sizes the quantum per pass to exactly that increment
// (route::bucket_quantum_for in route/router_core.hpp).  The
// fixed order here is FIFO (push order), which makes the pop sequence a
// pure function of the push sequence: bucket-mode routing is deterministic
// for any worker count.  A quantum larger than the smallest increment
// degrades gracefully: a push that would land behind the cursor is clamped
// into the current bucket (never dropped), which can reorder near-equal
// costs but keeps the expansion terminating and deterministic — and the
// router's lazy-deletion stale check still discards superseded entries by
// exact cost.
//
// Range: the calendar spans `span` buckets from the current base; pushes
// beyond it go to an overflow list.  When the calendar drains, the queue
// rebases onto the smallest overflow cost and redistributes the overflow
// in insertion order (FIFO preserved), so arbitrarily large costs — deep
// upstream-delay seeds, heavily historied nodes — cost one extra pass,
// not correctness.
//
// The calendar is generic over the payload: maze expansion queues
// `arch::NodeId`s, while the interleaved cross-context scheduler queues
// packed (context, net) keys ordered by 1 - criticality.  Both rely on the
// same FIFO-within-bucket determinism argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"

namespace mcfpga::route {

template <typename V>
class CalendarQueue {
 public:
  struct Item {
    double cost;
    V value;
  };

  /// Sizes the calendar.  Idempotent for unchanged parameters (the hot
  /// path calls it once per pass); reconfiguring clears the queue.
  void configure(double quantum, std::size_t span) {
    MCFPGA_REQUIRE(quantum > 0.0, "bucket quantum must be positive");
    MCFPGA_REQUIRE(span >= 2, "bucket calendar needs at least two buckets");
    if (quantum == quantum_ && span == buckets_.size()) {
      return;
    }
    quantum_ = quantum;
    inv_quantum_ = 1.0 / quantum;
    buckets_.assign(span, {});
    touched_.clear();
    overflow_.clear();
    base_ = 0;
    cursor_ = 0;
    pos_ = 0;
    size_ = 0;
  }

  /// Empties the queue in O(buckets touched since the last clear).
  void clear() {
    for (const std::size_t slot : touched_) {
      buckets_[slot].clear();
    }
    touched_.clear();
    overflow_.clear();
    base_ = 0;
    cursor_ = 0;
    pos_ = 0;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }

  void push(double cost, V value) {
    std::uint64_t q = quantize(cost);
    // Monotone clamp: never file an item behind the pop cursor (see the
    // header comment) — zero-cost seeds after a rebase land here too.
    const std::uint64_t floor_q = base_ + cursor_;
    if (q < floor_q) {
      q = floor_q;
    }
    place(q, Item{cost, value});
    ++size_;
  }

  Item pop() {
    MCFPGA_REQUIRE(size_ > 0, "pop from an empty bucket queue");
    for (;;) {
      while (cursor_ < buckets_.size()) {
        std::vector<Item>& bucket = buckets_[cursor_];
        if (pos_ < bucket.size()) {
          --size_;
          return bucket[pos_++];
        }
        bucket.clear();  // fully consumed; cheap to clear now
        pos_ = 0;
        ++cursor_;
      }
      rebase();  // calendar drained; only overflow items remain
    }
  }

 private:
  std::uint64_t quantize(double cost) const {
    // Costs are non-negative by construction; guard NaN/negative anyway so
    // a bad cost degrades to bucket 0 instead of undefined behavior.
    return cost > 0.0 ? static_cast<std::uint64_t>(cost * inv_quantum_) : 0;
  }

  void place(std::uint64_t q, const Item& item) {
    if (q >= base_ + buckets_.size()) {
      overflow_.push_back(item);
      return;
    }
    std::vector<Item>& bucket = buckets_[static_cast<std::size_t>(q - base_)];
    if (bucket.empty()) {
      touched_.push_back(static_cast<std::size_t>(q - base_));
    }
    bucket.push_back(item);
  }

  void rebase() {
    std::uint64_t min_q = std::numeric_limits<std::uint64_t>::max();
    for (const Item& item : overflow_) {
      min_q = std::min(min_q, quantize(item.cost));
    }
    base_ = min_q;
    cursor_ = 0;
    pos_ = 0;
    touched_.clear();  // every calendar bucket was cleared by the pop scan
    scratch_.clear();
    scratch_.swap(overflow_);
    for (const Item& item : scratch_) {  // insertion order: FIFO survives
      place(quantize(item.cost), item);
    }
  }

  double quantum_ = 0.0;
  double inv_quantum_ = 0.0;
  std::uint64_t base_ = 0;   ///< Quantized index of buckets_[0].
  std::size_t cursor_ = 0;   ///< Current bucket (pop scans forward only).
  std::size_t pos_ = 0;      ///< Next unconsumed item of the cursor bucket.
  std::size_t size_ = 0;
  std::vector<std::vector<Item>> buckets_;
  std::vector<std::size_t> touched_;  ///< Slots made non-empty since clear().
  std::vector<Item> overflow_;        ///< Quantized cost >= base_ + span.
  std::vector<Item> scratch_;         ///< Rebase staging (allocation reuse).
};

/// Maze expansion's calendar: payload is the routing-graph node.
using BucketQueue = CalendarQueue<arch::NodeId>;

}  // namespace mcfpga::route
