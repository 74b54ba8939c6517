// Per-host active-flow index (DESIGN.md §9): flows_by_host_ is the second
// O(hosts) structure on the controller. It maps each endpoint MAC to the
// session-slab slots of the flows touching it, so teardown by host goes
// straight to the sessions. It is one flat-hash table whose values are
// hybrid slot sets: the common case (a host with a few active flows) stays
// inline in the table slot with no per-flow node, while a hot host (a
// server terminating thousands of flows) spills into an open-addressing set
// so add/remove stay O(1) instead of degrading to a linear scan per flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/flat_hash.h"
#include "common/mac_address.h"
#include "common/small_vector.h"

namespace livesec::ctrl {

/// Set of session slots with inline storage for small cardinalities and a
/// flat-hash spill for large ones.
class SlotSet {
 public:
  bool contains(std::uint32_t slot) const {
    if (large_) return large_->find(slot) != nullptr;
    for (std::uint32_t existing : small_) {
      if (existing == slot) return true;
    }
    return false;
  }

  /// Inserts `slot`; returns false when it was already present.
  bool insert(std::uint32_t slot) {
    if (large_ == nullptr) {
      if (contains(slot)) return false;
      if (small_.size() < kSpillThreshold) {
        small_.push_back(slot);
        return true;
      }
      spill();
    }
    if (large_->find(slot) != nullptr) return false;
    large_->insert_or_assign(slot, 0);
    return true;
  }

  /// Removes `slot`; returns false when it was not present. A spilled set
  /// never shrinks back inline — a host that was hot tends to stay hot.
  bool erase(std::uint32_t slot) {
    if (large_) return large_->erase(slot);
    for (std::size_t i = 0; i < small_.size(); ++i) {
      if (small_[i] == slot) {
        small_[i] = small_.back();
        small_.pop_back();
        return true;
      }
    }
    return false;
  }

  std::size_t size() const { return large_ ? large_->size() : small_.size(); }
  bool empty() const { return size() == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (large_) {
      large_->for_each([&fn](std::uint32_t slot, char) { fn(slot); });
      return;
    }
    for (std::uint32_t slot : small_) fn(slot);
  }

 private:
  static constexpr std::size_t kInline = 4;
  static constexpr std::size_t kSpillThreshold = 16;

  void spill() {
    large_ = std::make_unique<LargeSet>();
    large_->reserve(2 * kSpillThreshold);
    for (std::uint32_t slot : small_) large_->insert_or_assign(slot, 0);
    small_ = SmallVector<std::uint32_t, kInline>();
  }

  using LargeSet = FlatHashMap<std::uint32_t, char>;

  SmallVector<std::uint32_t, kInline> small_;
  std::unique_ptr<LargeSet> large_;
};

/// Endpoint MAC -> session slots of active flows touching it.
class HostFlowIndex {
 public:
  /// Registers `slot` under `host`; duplicate registrations are idempotent.
  void add(const MacAddress& host, std::uint32_t slot) { by_host_[host.to_uint64()].insert(slot); }

  /// Unregisters `slot` from `host`; the host's entry disappears with its
  /// last flow. Returns true when the pair was present.
  bool remove(const MacAddress& host, std::uint32_t slot) {
    SlotSet* set = by_host_.find(host.to_uint64());
    if (set == nullptr) return false;
    if (!set->erase(slot)) return false;
    if (set->empty()) by_host_.erase(host.to_uint64());
    return true;
  }

  /// Flows of `host`, or nullptr. The pointer is invalidated by any
  /// mutation of the index (callers copy before tearing down).
  const SlotSet* find(const MacAddress& host) const { return by_host_.find(host.to_uint64()); }

  /// Hosts with at least one indexed flow.
  std::size_t host_count() const { return by_host_.size(); }

 private:
  FlatHashMap<std::uint64_t, SlotSet> by_host_;
};

}  // namespace livesec::ctrl
