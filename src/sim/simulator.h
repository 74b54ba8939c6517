// The simulation kernel: virtual clock plus event dispatch loop.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/types.h"
#include "sim/event_queue.h"

namespace livesec::sim {

/// Discrete-event simulator: one virtual clock over one event queue.
///
/// Every network element schedules its work through one `Simulator`, which
/// guarantees a globally ordered, reproducible execution: events run in
/// time order, and events with equal times run in scheduling order.
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` ns from now (delay >= 0). Callbacks
  /// capturing up to InlineFunction::kInlineSize bytes are stored without a
  /// heap allocation, constructed directly in their queue slot.
  template <typename F>
  void schedule(SimTime delay, F&& action) {
    assert(delay >= 0 && "cannot schedule into the past");
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at absolute simulated time `when` (>= now()).
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    assert(when >= now_ && "cannot schedule into the past");
    queue_.push(when, std::forward<F>(action));
  }

  /// Runs events until the queue drains. Returns the number of events run.
  std::uint64_t run();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline` (even if the queue drained earlier). Returns events run.
  std::uint64_t run_until(SimTime deadline);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }

 private:
  SimTime now_ = 0;
  EventQueue queue_;
};

}  // namespace livesec::sim
