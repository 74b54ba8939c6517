// Deterministic discrete-event queue — 4-ary min-heap of keys over a slab.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/inline_function.h"

namespace livesec::sim {

/// A pending simulation event: a callback to run at an absolute sim time.
/// Ties on time are broken by insertion sequence so execution order is fully
/// deterministic regardless of container internals. Sized (with
/// InlineFunction's 40-byte buffer) to exactly one 64-byte cache line.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  InlineFunction action;
};

/// Event queue ordered by (time, seq): O(log n) push and pop.
///
/// Layout (see DESIGN.md "Simulation kernel fast path"):
///   - `keys_`: a 4-ary min-heap of 24-byte (time, seq, slot) keys. Sifts
///     move keys only, never callbacks, and a node's four children share
///     about one and a half cache lines;
///   - `slab_`: the callbacks, one per slot, with a LIFO free list of the
///     slots that pop() emptied. A push takes the most recently freed slot,
///     so the slab holds the peak pending count, not the dispatch count.
///
/// A callback is constructed in its slot by push() and moved out once, into
/// the Event that pop() returns, before the caller runs it: a callback that
/// pushes (and so may grow the slab) never runs from inside the slab.
/// Dispatch order is bit-identical to a (time, seq) binary heap — the
/// property test checks this against ReferenceEventQueue.
///
/// The key, slab and free-list vectors keep their capacity, so a steady-state
/// simulation schedules and dispatches events with zero heap allocations
/// (callbacks permitting, see InlineFunction).
class EventQueue {
 public:
  /// Inserts an event at absolute time `time` (>= 0). Returns the sequence
  /// number assigned (useful for debugging; events cannot be cancelled —
  /// schedule a guard flag instead, which is how timeouts are implemented).
  /// Takes any void() callable; it is constructed directly in its slab slot
  /// (one move total from the caller's argument).
  template <typename F>
  std::uint64_t push(SimTime time, F&& action) {
    assert(time >= 0 && "event times are non-negative");
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      slab_[slot] = std::forward<F>(action);
    } else {
      slab_[slot].emplace(std::forward<F>(action));
    }
    keys_.emplace_back();
    sift_up(keys_.size() - 1, Key{time, seq, slot});
    return seq;
  }

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Keys and callback slots the queue has room for. Both stay within a
  /// small multiple of the peak pending count; regression-tested.
  std::size_t key_capacity() const { return keys_.capacity(); }
  std::size_t slab_capacity() const { return slab_.capacity(); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const {
    assert(!keys_.empty());
    return keys_.front().time;
  }

  /// Removes and returns the earliest pending event by move (no callback
  /// copy). Precondition: !empty().
  Event pop() {
    assert(!keys_.empty());
    const Key top = keys_.front();
    Event e{top.time, top.seq, std::move(slab_[top.slot])};
    free_.push_back(top.slot);
    const Key last = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) sift_down(last);
    return e;
  }

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Moves the hole at `i` up until `key` fits there, then fills it.
  void sift_up(std::size_t i, const Key& key) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(key, keys_[parent])) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = key;
  }

  /// Moves the hole at the root down until `key` fits there, then fills it.
  void sift_down(const Key& key) {
    const std::size_t n = keys_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + kArity <= n) {
        // Unrolled for a full node: GCC 12 at -O3 compiled the loop form
        // below into code ~30% slower on a drain with 1024 events pending.
        if (earlier(keys_[first + 1], keys_[best])) best = first + 1;
        if (earlier(keys_[first + 2], keys_[best])) best = first + 2;
        if (earlier(keys_[first + 3], keys_[best])) best = first + 3;
      } else {
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(keys_[c], keys_[best])) best = c;
        }
      }
      if (!earlier(keys_[best], key)) break;
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = key;
  }

  std::vector<Key> keys_;              // 4-ary min-heap on (time, seq)
  std::vector<InlineFunction> slab_;   // callbacks, indexed by Key::slot
  std::vector<std::uint32_t> free_;    // empty slots of slab_, reused LIFO
  std::uint64_t next_seq_ = 0;
};

}  // namespace livesec::sim
