#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace livesec::sim {

namespace {

/// Width heuristic: pick the power-of-two bucket width that spreads `pending`
/// events across `span` nanoseconds at roughly one per bucket, so spliced
/// days stay tiny and need no sorting. Callers pass the span of the events
/// *nearest the head* — sizing from the global span is the classic calendar
/// failure mode: one far-future timer (e.g. a 1 s duration guard) inflates
/// the span, the width balloons, every near event maps to the cursor's day
/// and the queue degenerates into an insertion-sorted run. The head sample
/// only protects a population larger than kWidthSample; a smaller one is
/// sampled whole, far timers included, and does degenerate. That costs a
/// binary search and a move of at most half the pending events per push,
/// since the run stays bounded (see insert_into_run).
std::uint32_t shift_for_span(SimTime span, std::size_t pending, std::uint64_t num_buckets) {
  const std::uint64_t divisor =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(pending, num_buckets));
  const std::uint64_t target = static_cast<std::uint64_t>(span < 0 ? 0 : span) / divisor;
  // Round up to the *nearest* power of two (bit_width alone would round a
  // power-of-two target up a further 2x, doubling bucket occupancy).
  if (target <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(target - 1));
}

}  // namespace

void EventQueue::place(Event&& e) {
  const std::uint64_t b = bucket_of(e.time);
  if (b <= day_) {
    // At or before the cursor's day: append to the run; rebuild() sorts the
    // run once after all placements.
    cur_.push_back(std::move(e));
  } else if (b < window_end_) {
    buckets_[b & kMask].push_back(std::move(e));
    occupied_[(b & kMask) >> 6] |= 1ull << (b & 63);
    ++near_count_;
  } else {
    overflow_.push_back(std::move(e));
  }
}

void EventQueue::rebuild() {
  scratch_.clear();
  scratch_.reserve(size_);
  for (std::size_t i = pos_; i < cur_.size(); ++i) scratch_.push_back(std::move(cur_[i]));
  cur_.clear();
  pos_ = 0;
  if (near_count_ > 0) {
    for (Bucket& b : buckets_) {
      for (Event& e : b) scratch_.push_back(std::move(e));
      b.clear();
    }
  }
  for (Event& e : overflow_) scratch_.push_back(std::move(e));
  overflow_.clear();
  near_count_ = 0;
  for (std::uint64_t& w : occupied_) w = 0;

  // Size buckets from the density at the head of the queue, where the window
  // lives — not from the global span (see shift_for_span). Far events simply
  // sit in the overflow until a later rebuild reaches them, unless fewer than
  // kWidthSample events are pending: then the sample is the whole population
  // and far timers do set the width. An O(n) select of the kWidthSample-th
  // smallest time gives the head span without sorting the (64-byte) events
  // themselves.
  time_scratch_.clear();
  time_scratch_.reserve(scratch_.size());
  SimTime tmin = scratch_.front().time;
  for (const Event& e : scratch_) {
    tmin = std::min(tmin, e.time);
    time_scratch_.push_back(e.time);
  }
  const std::size_t sample = std::min<std::size_t>(time_scratch_.size(), kWidthSample);
  if (sample >= 2) {
    std::nth_element(time_scratch_.begin(),
                     time_scratch_.begin() + static_cast<std::ptrdiff_t>(sample - 1),
                     time_scratch_.end());
    shift_ = shift_for_span(time_scratch_[sample - 1] - tmin, sample - 1, kBuckets);
  } else {
    shift_ = 0;
  }
  day_ = static_cast<std::uint64_t>(tmin) >> shift_;
  window_end_ = day_ + kBuckets;
  for (Event& e : scratch_) place(std::move(e));
  scratch_.clear();
  // place() appended the cursor-day events to the run unsorted; restore the
  // (time, seq) dispatch order. The run holds at most one bucket's worth.
  std::sort(cur_.begin(), cur_.end(), Earlier{});
  // Re-derive the width once the population doubles: a rebuild taken while
  // the workload ramps (a handful of sparse timers at t=0) picks a coarse
  // width that would otherwise stick for the whole window.
  resize_at_ = std::max<std::size_t>(2 * size_, 2 * kWidthSample);
}

}  // namespace livesec::sim
