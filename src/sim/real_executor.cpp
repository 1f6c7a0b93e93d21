#include "sim/real_executor.hpp"

#include <utility>
#include <vector>

namespace amuse {

RealExecutor::RealExecutor() : epoch_(std::chrono::steady_clock::now()) {}

TimePoint RealExecutor::now() const {
  auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return TimePoint(std::chrono::duration_cast<Duration>(elapsed));
}

void RealExecutor::post(Task fn) { (void)schedule_at(now(), std::move(fn)); }

TimerId RealExecutor::schedule_at(TimePoint t, Task fn) {
  MutexLock lock(mu_);
  TimerId id = queue_.push(t, std::move(fn));
  cv_.notify_all();
  return id;
}

void RealExecutor::cancel(TimerId id) {
  Task dead;
  {
    MutexLock lock(mu_);
    dead = queue_.cancel(id);
  }
  // Destroyed outside the lock: a task's destructor may re-enter.
}

void RealExecutor::run() {
  run_until_wall(TimePoint{}, /*has_deadline=*/false);
}

void RealExecutor::run_for(Duration d) {
  run_until_wall(now() + d, /*has_deadline=*/true);
}

void RealExecutor::run_until_wall(TimePoint deadline, bool has_deadline) {
  LoopGuard guard(*this);  // the calling thread is this executor's consumer
  {
    MutexLock lock(mu_);
    stop_ = false;
  }
  std::vector<Task> batch;
  for (;;) {
    batch.clear();
    {
      MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        if (has_deadline && now() >= deadline) return;
        // Drain the whole run of due tasks under this one lock acquisition
        // (the wakeup-economics fix: a burst of posts costs one drain, not
        // one lock round per task). A drained task is past the point of
        // cancellation, exactly like a popped task was before.
        TimePoint due = now();
        TimePoint when;
        while (!queue_.empty() && queue_.next_when() <= due) {
          batch.push_back(queue_.pop(when));
        }
        if (!batch.empty()) break;
        auto wall_deadline = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(50);
        if (!queue_.empty()) {
          auto next = epoch_ + queue_.next_when().time_since_epoch();
          if (next < wall_deadline) wall_deadline = next;
        }
        if (has_deadline) {
          auto dl = epoch_ + deadline.time_since_epoch();
          if (dl < wall_deadline) wall_deadline = dl;
        }
        cv_.wait_until(lock, wall_deadline);
      }
    }
    ++stats_.wakeups;
    stats_.tasks_run += batch.size();
    stats_.max_drain.raise_to(batch.size());
    for (Task& task : batch) task();
  }
}

void RealExecutor::stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

}  // namespace amuse
