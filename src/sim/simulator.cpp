#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace livesec::sim {

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  Event e = queue_.pop();
  now_ = e.time;
  e.action();
  return true;
}

}  // namespace livesec::sim
