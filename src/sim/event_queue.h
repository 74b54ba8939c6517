// Deterministic discrete-event queue — two-tier calendar with overflow.
#pragma once

#include <algorithm>
#include <bit>
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

/// Calendar queue with amortized O(1) push/pop, ordered by (time, seq).
///
/// Layout (see DESIGN.md "Simulation kernel fast path"):
///   - sorted run `cur_`: the next batch of due events in ascending
///     (time, seq) order, consumed through cursor `pos_` — pop is one move
///     plus a cursor increment, no heap sift;
///   - near tier: kBuckets unsorted append-only buckets of width 2^shift_ ns
///     covering the window [day_, window_end_) of absolute bucket numbers,
///     with a 1-bit-per-bucket occupancy bitmap;
///   - overflow tier: one unsorted vector for events at or past window end.
///
/// Push appends to a bucket or the overflow (O(1)). When the run is consumed,
/// settle() splices the next few non-empty buckets (found via countr_zero on
/// the bitmap) into a fresh run; at the density-matched bucket width each
/// bucket holds events of a single timestamp already in seq order, so the
/// splice needs no comparison sort. Events pushed at or before the cursor's
/// day (zero-delay self-reschedules) insert into the pending part of the run
/// by binary search, reusing dispatched slots in front of the cursor. When
/// the near tier drains, the window is rebuilt around the overflow with a
/// width recomputed from the density at its head; a
/// doubled population, an oversized pending run, or a bucket that collected
/// a large burst likewise force a finer-width rebuild. Dispatch
/// order is bit-identical to a (time, seq) min-heap — the property test
/// checks this against ReferenceEventQueue.
///
/// The run, bucket, and scratch vectors recycle their capacity, so a
/// steady-state simulation schedules and dispatches events with zero heap
/// allocations (callbacks permitting, see InlineFunction).
class EventQueue {
 public:
  /// Inserts an event at absolute time `time` (>= 0). Returns the sequence
  /// number assigned (useful for debugging; events cannot be cancelled —
  /// schedule a guard flag instead, which is how timeouts are implemented).
  /// Takes any void() callable; it is constructed directly in its queue slot
  /// (one move total from the caller's argument).
  template <typename F>
  std::uint64_t push(SimTime time, F&& action) {
    assert(time >= 0 && "event times are non-negative");
    const std::uint64_t seq = next_seq_++;
    // The population doubled since the width was last derived: re-derive it.
    // A width picked during ramp-up (a few sparse timers) is far too coarse
    // for the steady-state density, and the window only re-sizes naturally
    // when the near tier drains — which a too-coarse width postpones.
    if (size_ >= resize_at_) {
      rebuild();
      burst_retry_ok_ = true;
    }
    std::uint64_t b = bucket_of(time);
    if (b <= day_ && cur_.size() - pos_ >= kBurstThreshold && burst_retry_ok_) {
      // The pending run has grown far past the splice target: pushes keep
      // landing at or before the cursor's day, i.e. the bucket width is too
      // coarse for the live distribution and every such insert pays an O(n)
      // memmove. Rebuild at the width the current population implies; only
      // retry once a finer width was actually achieved.
      const std::uint32_t old_shift = shift_;
      rebuild();
      burst_retry_ok_ = shift_ < old_shift;
      b = bucket_of(time);
    }
    Event* slot;
    if (b <= day_) {
      // Due at or before the cursor's day (that bucket is already spliced
      // into the run — zero-delay self-reschedules land here): insert into
      // the pending part of the run at its sorted position.
      slot = insert_into_run(time, seq);
    } else if (b < window_end_) {
      Bucket& bucket = buckets_[b & kMask];
      occupied_[(b & kMask) >> 6] |= 1ull << (b & 63);
      ++near_count_;
      slot = &bucket.emplace_back();
      slot->time = time;
      slot->seq = seq;
    } else {
      slot = &overflow_.emplace_back();
      slot->time = time;
      slot->seq = seq;
    }
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      slot->action = std::forward<F>(action);
    } else {
      slot->action.emplace(std::forward<F>(action));
    }
    ++size_;
    if (pos_ == cur_.size()) settle();
    return seq;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Events the sorted run has room for (dispatched prefix included). Stays
  /// within a small multiple of the peak pending count; regression-tested.
  std::size_t run_capacity() const { return cur_.capacity(); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const {
    assert(pos_ < cur_.size());
    return cur_[pos_].time;
  }

  /// Removes and returns the earliest pending event by move (no callback
  /// copy). Precondition: !empty().
  Event pop() {
    assert(size_ > 0 && pos_ < cur_.size());
    Event e = std::move(cur_[pos_]);
    ++pos_;
    --size_;
    if (pos_ == cur_.size() && size_ > 0) settle();
    return e;
  }

 private:
  static constexpr std::uint64_t kBuckets = 1024;  // power of two
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kWords = kBuckets / 64;
  static constexpr std::uint64_t kWordMask = kWords - 1;
  /// settle() splices consecutive days until the run holds at least this
  /// many events, amortizing the refill over several pops.
  static constexpr std::size_t kSpliceTarget = 16;
  /// A spliced day larger than this (with a splittable width) triggers a
  /// finer-width rebuild: the day collected a burst denser than the current
  /// calendar resolution. The same threshold caps the pending run length a
  /// push may extend before forcing a rebuild (see push()).
  static constexpr std::size_t kBurstThreshold = 64;
  /// Events sampled from the head of the sorted population to derive the
  /// bucket width at rebuild (their mean gap approximates the density the
  /// window actually serves).
  static constexpr std::size_t kWidthSample = 64;

  using Bucket = std::vector<Event>;

  struct Earlier {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  std::uint64_t bucket_of(SimTime time) const {
    return static_cast<std::uint64_t>(time) >> shift_;
  }

  /// Opens a slot for (time, seq) at its sorted position in the pending part
  /// of the run, [pos_, cur_.size()), moving whichever side of that position
  /// holds fewer pending events. The left side shifts into the dispatched
  /// slot in front of the cursor, which steps back; the right side shifts up
  /// into a new slot at the end. Before the run grows that way, a dispatched
  /// prefix longer than the pending part is dropped (paid for by the pops
  /// that built it), so the run stays within about twice the peak pending
  /// count. A run that never drains (a width too coarse for the cursor's day
  /// ever to empty) would otherwise keep one dead slot per dispatched event.
  Event* insert_into_run(SimTime time, std::uint64_t seq) {
    const auto first = cur_.begin() + static_cast<std::ptrdiff_t>(pos_);
    auto it = std::upper_bound(
        first, cur_.end(), std::pair<SimTime, std::uint64_t>(time, seq),
        [](const std::pair<SimTime, std::uint64_t>& v, const Event& e) {
          if (v.first != e.time) return v.first < e.time;
          return v.second < e.seq;
        });
    Event* slot;
    if (pos_ > 0 && it - first <= cur_.end() - it) {
      slot = &*std::move(first, it, first - 1);
      --pos_;
    } else {
      if (pos_ > cur_.size() - pos_) {
        const std::ptrdiff_t offset = it - first;
        cur_.erase(cur_.begin(), first);
        pos_ = 0;
        it = cur_.begin() + offset;
      }
      slot = &*cur_.insert(it, Event{});
    }
    slot->time = time;
    slot->seq = seq;
    return slot;
  }

  /// Refills the run with the next batch of due events. Precondition:
  /// size_ > 0 and the run is fully consumed (pos_ == cur_.size()).
  /// Inlined: it runs once per ~kSpliceTarget dispatches in steady state.
  void settle() {
    cur_.clear();
    pos_ = 0;
    for (;;) {
      if (near_count_ == 0) {
        if (!cur_.empty()) return;
        // Near tier drained: rebuild the window around the overflow. This
        // is where the bucket width adapts to the workload's event density.
        rebuild();
        burst_retry_ok_ = true;
        if (!cur_.empty()) return;
        continue;
      }
      if (cur_.size() >= kSpliceTarget) return;
      advance_day();
      Bucket& bucket = buckets_[day_ & kMask];
      if (cur_.empty() && burst_retry_ok_ && bucket.size() > kBurstThreshold && shift_ > 0) {
        // One day collected a burst denser than the calendar resolution
        // (e.g. a sparse settle phase fixed a coarse width, then traffic
        // started): redistribute with a finer width. If the global span
        // prevents a finer width, fall through and splice the big day.
        const std::uint32_t old_shift = shift_;
        rebuild();
        burst_retry_ok_ = shift_ < old_shift;
        if (!cur_.empty()) return;
        continue;
      }
      near_count_ -= bucket.size();
      occupied_[(day_ & kMask) >> 6] &= ~(1ull << (day_ & 63));
      const std::size_t first = cur_.size();
      for (Event& e : bucket) cur_.push_back(std::move(e));
      bucket.clear();  // keeps capacity for reuse
      if (shift_ != 0 && cur_.size() - first > 1) {
        // Wide buckets can hold mixed timestamps in push order. At width 1
        // (the steady-state fit) every event in a bucket shares one
        // timestamp and is already in seq order, so no sort is needed —
        // and consecutive days concatenate into a sorted run for free.
        std::sort(cur_.begin() + static_cast<std::ptrdiff_t>(first), cur_.end(), Earlier{});
      }
    }
  }

  /// Advances `day_` to the next non-empty bucket by scanning the occupancy
  /// bitmap (no bucket headers touched). Precondition: near_count_ > 0.
  void advance_day() {
    std::uint64_t p = day_ & kMask;
    std::uint64_t w = occupied_[p >> 6] >> (p & 63);
    if (w != 0) {
      day_ += std::countr_zero(w);
      return;
    }
    // Scan whole words, wrapping once around the ring. The window is exactly
    // kBuckets wide, so every set bit maps to a unique day in
    // [day_, window_end_).
    for (std::uint64_t i = (p >> 6) + 1;; ++i) {
      const std::uint64_t word = occupied_[i & kWordMask];
      if (word != 0) {
        const std::uint64_t pos = ((i & kWordMask) << 6) +
                                  static_cast<std::uint64_t>(std::countr_zero(word));
        day_ += (pos - p) & kMask;
        return;
      }
    }
  }

  /// Routes an event to the run, a near bucket, or overflow (rebuild only).
  void place(Event&& e);

  /// Collects every pending event and redistributes it into a fresh window
  /// whose bucket width is derived from the mean gap of the kWidthSample
  /// earliest events (head density, not global span — a lone far-future
  /// timer must not widen the buckets of a larger population; a population
  /// below kWidthSample is sampled whole, see shift_for_span).
  void rebuild();

  std::vector<Event> cur_;                  // sorted run; [0, pos_) dispatched, reused
  std::size_t pos_ = 0;                     // cursor into cur_
  std::vector<Bucket> buckets_{kBuckets};   // near tier, unsorted
  std::vector<Event> overflow_;             // far tier, unsorted
  std::vector<Event> scratch_;              // rebuild staging, capacity reused
  std::vector<SimTime> time_scratch_;       // rebuild width sample, capacity reused
  /// One bit per near bucket; set iff the bucket is non-empty. Lets
  /// advance_day() skip empty days with countr_zero over 128 bytes instead
  /// of probing 24KB of bucket headers.
  std::uint64_t occupied_[kWords] = {};

  std::uint32_t shift_ = 0;                 // bucket width = 2^shift_ ns
  std::uint64_t day_ = 0;                   // absolute bucket of the run's tail
  std::uint64_t window_end_ = kBuckets;     // absolute bucket past the window
  std::size_t near_count_ = 0;              // events across buckets_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Population size that forces a width re-derivation (2x the size at the
  /// last rebuild): keeps a width picked during ramp-up from sticking.
  std::size_t resize_at_ = 2 * kWidthSample;
  /// Cleared when a burst rebuild failed to find a finer width, so a
  /// too-wide-to-split day is spliced as one big run instead of looping.
  bool burst_retry_ok_ = true;
};

}  // namespace livesec::sim
