#include "sim/sim_executor.hpp"

#include <utility>

namespace amuse {

void SimExecutor::post(Task fn) { (void)schedule_at(now_, std::move(fn)); }

TimerId SimExecutor::schedule_at(TimePoint t, Task fn) {
  if (t < now_) t = now_;
  return queue_.push(t, std::move(fn));
}

void SimExecutor::cancel(TimerId id) {
  // The task dies here, after the queue is consistent again.
  Task dead = queue_.cancel(id);
}

bool SimExecutor::step() {
  LoopGuard guard(*this);  // the calling thread is the consumer while a
                           // task runs (affinity assertions key off this)
  if (queue_.empty()) return false;
  Task fn = queue_.pop(now_);
  ++executed_;
  fn();
  return true;
}

std::size_t SimExecutor::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

void SimExecutor::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.next_when() <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace amuse
