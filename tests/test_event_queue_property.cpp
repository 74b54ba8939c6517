// Property test: EventQueue (a 4-ary key heap over a callback slab)
// dispatches the exact same (time, seq, id) sequence as the reference
// binary heap of std::function events.
//
// Determinism is a hard requirement of the kernel (ROADMAP: reproducible
// experiment numbers), so the queue is not allowed to reorder even
// same-time events: ties break by insertion seq, bit-identically to the
// reference heap. This test drives both queues through the same randomized
// scripts of push / pop / run_until operations — including same-time ties,
// zero-delay self-rescheduling callbacks, far-future times, same-time
// bursts, chain traffic under far timers, and a callback whose children
// grow the slab while other callbacks are pending — and requires the
// dispatch logs to match element for element.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.h"
#include "sim/reference_event_queue.h"

namespace livesec::sim {
namespace {

struct Dispatch {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t id = 0;

  bool operator==(const Dispatch& o) const {
    return time == o.time && seq == o.seq && id == o.id;
  }
};

/// Drives one queue implementation through a script. Callbacks may spawn
/// children from inside their own dispatch (possibly at the current time,
/// i.e. zero delay), which exercises push-during-drain reentrancy.
template <typename Queue>
class Harness {
 public:
  void spawn(SimTime t, std::uint32_t id, std::uint32_t children, SimTime child_delay) {
    queue_.push(t, [this, id, children, child_delay] {
      log_.back().id = id;
      for (std::uint32_t c = 0; c < children; ++c) {
        // First child is a zero-delay self-reschedule when child_delay > 0
        // is multiplied by c == 0; ids derive deterministically from the
        // parent so both queue implementations spawn identical trees.
        spawn(now_ + child_delay * c, id * 31u + c + 1u, children / 2, child_delay);
      }
    });
  }

  /// A self-perpetuating chain: every dispatch re-spawns the chain 0-10 us
  /// ahead (the delay derives from id and hop, so both queues see the same
  /// schedule) until `hops` run out.
  void chain(SimTime t, std::uint32_t id, std::uint32_t hops) {
    queue_.push(t, [this, id, hops] {
      log_.back().id = id;
      if (hops == 0) return;
      const std::uint64_t h = ((std::uint64_t{id} << 32) | hops) * 0x9E3779B97F4A7C15ull;
      chain(now_ + static_cast<SimTime>((h >> 40) % 10'001), id, hops - 1);
    });
  }

  /// One callback that pushes `fan_out` leaf children from inside its own
  /// dispatch, child c at `c * child_delay` from then.
  void fan(SimTime t, std::uint32_t id, std::uint32_t fan_out, SimTime child_delay) {
    queue_.push(t, [this, id, fan_out, child_delay] {
      log_.back().id = id;
      for (std::uint32_t c = 0; c < fan_out; ++c) {
        spawn(now_ + child_delay * c, id + c + 1, 0, 0);
      }
    });
  }

  bool pop_one() {
    if (queue_.empty()) return false;
    auto e = queue_.pop();
    now_ = e.time;
    log_.push_back(Dispatch{e.time, e.seq, 0});
    e.action();
    return true;
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) pop_one();
    if (now_ < deadline) now_ = deadline;
  }

  void drain() {
    while (pop_one()) {
    }
  }

  SimTime now() const { return now_; }
  const std::vector<Dispatch>& log() const { return log_; }

 private:
  Queue queue_;
  SimTime now_ = 0;
  std::vector<Dispatch> log_;
};

/// One scripted operation, generated once and applied to both queues.
struct Op {
  enum Kind { kPush, kPop, kRunUntil, kChain, kFan } kind = kPush;
  SimTime time_arg = 0;          // push/chain/fan: offset from now; run_until: delta
  std::uint32_t id = 0;          // push/chain/fan
  std::uint32_t children = 0;    // push: children; chain: hops; fan: fan-out
  SimTime child_delay = 0;       // push/fan
};

template <typename Queue>
std::vector<Dispatch> apply_script(const std::vector<Op>& script) {
  Harness<Queue> harness;
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kPush: {
        SimTime t = harness.now() + op.time_arg;
        if (t < 0) t = 0;
        harness.spawn(t, op.id, op.children, op.child_delay);
        break;
      }
      case Op::kChain:
        harness.chain(harness.now() + op.time_arg, op.id, op.children);
        break;
      case Op::kFan:
        harness.fan(harness.now() + op.time_arg, op.id, op.children, op.child_delay);
        break;
      case Op::kPop:
        harness.pop_one();
        break;
      case Op::kRunUntil:
        harness.run_until(harness.now() + op.time_arg);
        break;
    }
  }
  harness.drain();
  return harness.log();
}

void expect_identical(const std::vector<Op>& script, const char* label) {
  const std::vector<Dispatch> queue = apply_script<EventQueue>(script);
  const std::vector<Dispatch> reference = apply_script<ReferenceEventQueue>(script);
  ASSERT_EQ(queue.size(), reference.size()) << label;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    ASSERT_TRUE(queue[i] == reference[i])
        << label << ": dispatch " << i << " diverged — queue (t=" << queue[i].time
        << ", seq=" << queue[i].seq << ", id=" << queue[i].id << ") vs reference (t="
        << reference[i].time << ", seq=" << reference[i].seq << ", id=" << reference[i].id
        << ")";
  }
}

std::vector<Op> random_script(std::uint64_t seed, std::size_t ops) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  // Delay mix: immediate (ties), near future, far future.
  std::uniform_int_distribution<SimTime> near_dist(0, 2000);
  std::uniform_int_distribution<SimTime> far_dist(0, 20'000'000);
  std::uniform_int_distribution<std::uint32_t> children_dist(0, 3);
  std::vector<Op> script;
  script.reserve(ops);
  SimTime last_push_offset = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const int k = kind_dist(rng);
    Op op;
    if (k < 60) {
      op.kind = Op::kPush;
      const int shape = kind_dist(rng);
      if (shape < 20) {
        op.time_arg = 0;  // dispatch "now": ties with the running event
      } else if (shape < 40) {
        op.time_arg = last_push_offset;  // deliberate same-time tie
      } else if (shape < 85) {
        op.time_arg = near_dist(rng);
      } else {
        op.time_arg = far_dist(rng);  // far timers deep in the heap
      }
      last_push_offset = op.time_arg;
      op.id = static_cast<std::uint32_t>(rng());
      op.children = children_dist(rng);
      op.child_delay = (kind_dist(rng) < 30) ? 0 : near_dist(rng) / 4;
      script.push_back(op);
    } else if (k < 85) {
      op.kind = Op::kPop;
      script.push_back(op);
    } else {
      op.kind = Op::kRunUntil;
      op.time_arg = near_dist(rng) * 8;
      script.push_back(op);
    }
  }
  return script;
}

TEST(EventQueuePropertyTest, RandomizedSchedulesMatchReferenceHeap) {
  // 10 seeds x 1000 ops = 10k mixed operations, each op possibly spawning a
  // tree of child events from inside callbacks.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_identical(random_script(seed, 1000), "random schedule");
  }
}

TEST(EventQueuePropertyTest, SameTimeBurstMatchesReferenceHeap) {
  // A sparse phase first, then a dense same-time burst: several hundred
  // events sharing one timestamp must still leave the heap in seq order.
  std::vector<Op> script;
  for (int i = 0; i < 8; ++i) {
    script.push_back(Op{Op::kPush, i * 1'000'000, static_cast<std::uint32_t>(i), 0, 0});
  }
  script.push_back(Op{Op::kRunUntil, 2'500'000, 0, 0, 0});
  for (int i = 0; i < 500; ++i) {
    script.push_back(Op{Op::kPush, 777, static_cast<std::uint32_t>(1000 + i), 0, 0});
  }
  expect_identical(script, "same-time burst");
}

TEST(EventQueuePropertyTest, ZeroDelayCascadesMatchReferenceHeap) {
  // Chains that respawn at the exact current time while events of that time
  // are still pending: every child must still run in seq order after its
  // same-time siblings.
  std::vector<Op> script;
  for (int i = 0; i < 32; ++i) {
    script.push_back(Op{Op::kPush, i % 4, static_cast<std::uint32_t>(i), 3, 0});
  }
  for (int i = 0; i < 64; ++i) script.push_back(Op{Op::kPop, 0, 0, 0, 0});
  for (int i = 0; i < 32; ++i) {
    script.push_back(Op{Op::kPush, 5, static_cast<std::uint32_t>(100 + i), 2, 0});
  }
  expect_identical(script, "zero-delay cascade");
}

TEST(EventQueuePropertyTest, PastPushesDuringDrainMatchReferenceHeap) {
  // Events pushed at times earlier than already-dispatched events (the queue
  // does not forbid it; the Simulator layer does) must still order by
  // (time, seq) against everything pending.
  std::vector<Op> script;
  for (int i = 0; i < 16; ++i) {
    script.push_back(Op{Op::kPush, 1000 + i * 10, static_cast<std::uint32_t>(i), 0, 0});
  }
  for (int i = 0; i < 8; ++i) script.push_back(Op{Op::kPop, 0, 0, 0, 0});
  for (int i = 0; i < 8; ++i) {
    script.push_back(Op{Op::kPush, -900, static_cast<std::uint32_t>(200 + i), 1, 0});
  }
  expect_identical(script, "past pushes");
}

TEST(EventQueuePropertyTest, FarTimersWithChainTrafficMatchReferenceHeap) {
  // The FIT data-plane shape: a few far timers (>= 1 s) plus 40 in-flight
  // chains re-spawning 0-10 us ahead, 200k dispatches: the timers sink to
  // the heap's leaves while the chains reuse freed slab slots.
  std::vector<Op> script;
  for (int i = 1; i <= 4; ++i) {
    script.push_back(Op{Op::kPush, i * kSecond, static_cast<std::uint32_t>(i), 0, 0});
  }
  for (int i = 0; i < 40; ++i) {
    script.push_back(Op{Op::kChain, i * 250, static_cast<std::uint32_t>(100 + i), 5000, 0});
  }
  expect_identical(script, "far timers with chain traffic");
}

TEST(EventQueuePropertyTest, SlabGrowthInsideCallbackMatchesReferenceHeap) {
  // 64 callbacks pending, then one more pushes 1024 children from inside its
  // own dispatch: the slab reallocates several times while the other
  // callbacks still sit in it. The children start at the dispatching time
  // and interleave with the pending events after it.
  std::vector<Op> script;
  for (int i = 0; i < 64; ++i) {
    script.push_back(Op{Op::kPush, 100 + i * 7, static_cast<std::uint32_t>(i), 0, 0});
  }
  script.push_back(Op{Op::kFan, 100, 5000, 1024, 1});
  for (int i = 0; i < 16; ++i) script.push_back(Op{Op::kPop, 0, 0, 0, 0});
  expect_identical(script, "slab growth inside a callback");
}

}  // namespace
}  // namespace livesec::sim
