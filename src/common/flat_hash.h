// Open-addressing hash map for trivially small key/value pairs.
//
// The controller's host-scale tables (routing MAC index, IP index, per-dpid
// chain heads) are hot at campus scale: a million hosts means a million
// entries probed on every packet-in. std::unordered_map pays one heap node
// plus pointer chase per entry; this map stores entries inline in one flat
// slot array (robin-hood probing, backward-shift deletion, no tombstones),
// so lookups touch one or two cache lines and memory stays a flat
// slots * sizeof(Slot) with a bounded load factor.
//
// Only the slice of the map interface the codebase needs is implemented.
// Keys and values should be cheap to move (the intended use is integral
// keys mapping to handles). Pointers returned by find() are invalidated by
// any mutation, exactly as iterators of std::unordered_map are by rehash.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace livesec {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot-array length (0 or a power of two).
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    std::fill(dist_.begin(), dist_.end(), 0u);
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries without rehashing on the way there.
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want * 7 < n * 8) want *= 2;  // keep load factor under 7/8
    if (want > slots_.size()) rehash(want);
  }

  Value* find(const Key& key) {
    return const_cast<Value*>(static_cast<const FlatHashMap*>(this)->find(key));
  }

  const Value* find(const Key& key) const {
    if (size_ == 0) return nullptr;
    std::size_t idx = home_of(key);
    std::uint32_t dist = 1;
    // Robin-hood invariant: an entry never sits further from home than the
    // probing key has travelled, so the scan stops at the first poorer slot.
    while (dist_[idx] >= dist) {
      if (slots_[idx].first == key) return &slots_[idx].second;
      idx = (idx + 1) & mask_;
      ++dist;
    }
    return nullptr;
  }

  /// Inserts or overwrites. Returns true when the key was newly inserted.
  bool insert_or_assign(const Key& key, Value value) {
    bool inserted = false;
    *slot_for(key, &inserted) = std::move(value);
    return inserted;
  }

  /// Value for `key`, default-constructed and inserted when absent.
  Value& operator[](const Key& key) {
    bool inserted = false;
    Value* v = slot_for(key, &inserted);
    if (inserted) *v = Value{};
    return *v;
  }

  /// Removes `key`; returns true when it was present. Backward-shift
  /// deletion keeps probe chains dense (no tombstone accumulation).
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t idx = home_of(key);
    std::uint32_t dist = 1;
    while (dist_[idx] >= dist) {
      if (slots_[idx].first == key) {
        std::size_t next = (idx + 1) & mask_;
        while (dist_[next] > 1) {
          slots_[idx] = std::move(slots_[next]);
          dist_[idx] = dist_[next] - 1;
          idx = next;
          next = (next + 1) & mask_;
        }
        dist_[idx] = 0;
        --size_;
        return true;
      }
      idx = (idx + 1) & mask_;
      ++dist;
    }
    return false;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (dist_[i] != 0) fn(slots_[i].first, slots_[i].second);
    }
  }

  /// Footprint of the slot storage (the O(capacity) term of the table).
  std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(std::pair<Key, Value>) +
           dist_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::size_t home_of(const Key& key) const {
    // splitmix64 decorrelates identity-ish hashes (MACs, dpids, IPs are
    // near-sequential in generated topologies) before masking.
    return static_cast<std::size_t>(splitmix64(static_cast<std::uint64_t>(Hash{}(key)))) & mask_;
  }

  /// Finds or creates the slot for `key`; grows as needed. Probe distances
  /// are bounded by table size (uint32 cannot overflow before OOM), so a
  /// placement never fails mid-carry.
  Value* slot_for(const Key& key, bool* inserted) {
    if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    std::size_t idx = home_of(key);
    std::uint32_t dist = 1;
    Key carry_key = key;
    Value carry_value{};
    Value* result = nullptr;
    bool carrying_target = true;  // carry_* still holds the key being placed
    while (true) {
      if (dist_[idx] == 0) {
        slots_[idx].first = std::move(carry_key);
        slots_[idx].second = std::move(carry_value);
        dist_[idx] = dist;
        ++size_;
        if (carrying_target) {
          *inserted = true;
          result = &slots_[idx].second;
        }
        return result;
      }
      if (carrying_target && slots_[idx].first == carry_key) {
        *inserted = false;
        return &slots_[idx].second;
      }
      if (dist_[idx] < dist) {
        // Rob the richer entry: park the carried pair here, keep walking
        // with the evicted one until it finds an empty slot.
        std::swap(slots_[idx].first, carry_key);
        std::swap(slots_[idx].second, carry_value);
        std::swap(dist_[idx], dist);
        if (carrying_target) {
          *inserted = true;
          result = &slots_[idx].second;
          carrying_target = false;
        }
      }
      idx = (idx + 1) & mask_;
      ++dist;
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::pair<Key, Value>> old_slots = std::move(slots_);
    std::vector<std::uint32_t> old_dist = std::move(dist_);
    slots_.clear();
    slots_.resize(new_capacity);  // not assign(): values may be move-only
    dist_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_dist[i] != 0) {
        bool inserted = false;
        *slot_for(old_slots[i].first, &inserted) = std::move(old_slots[i].second);
      }
    }
  }

  std::vector<std::pair<Key, Value>> slots_;
  /// Probe distance + 1 of each slot; 0 = empty. Parallel array keeps the
  /// occupancy scan off the (wider) slot cache lines.
  std::vector<std::uint32_t> dist_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace livesec
