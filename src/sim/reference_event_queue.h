// Reference event-queue model: the original binary heap, kept verbatim.
//
// This is NOT used by the production kernel. It exists for two consumers:
//   - the randomized property test, which checks that the key heap over a
//     callback slab in event_queue.h dispatches the exact same (time, seq)
//     sequence;
//   - bench_kernel, which reports the production queue's speedup against
//     this heap on identical workloads, so the ratio is reproducible on any
//     host.
//
// It deliberately preserves the old costs: type-erased std::function events,
// O(log n) heap push/pop, and the copy-out pop (priority_queue::top() is
// const, so moving out would silently copy anyway — the original bug).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"

namespace livesec::sim {

/// A pending event in the reference model.
struct ReferenceEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::function<void()> action;
};

/// Min-heap of events ordered by (time, seq) — the original EventQueue.
class ReferenceEventQueue {
 public:
  std::uint64_t push(SimTime time, std::function<void()> action) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(ReferenceEvent{time, seq, std::move(action)});
    return seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const { return heap_.top().time; }

  ReferenceEvent pop() {
    ReferenceEvent e = heap_.top();  // intentional copy-out, see header comment
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const ReferenceEvent& a, const ReferenceEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<ReferenceEvent, std::vector<ReferenceEvent>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace livesec::sim
