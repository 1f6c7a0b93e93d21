// Wall-clock executor for running the SMC stack on a real network (the
// prototype's UDP configuration, paper §IV). Single consumer thread calls
// run(); producers (e.g. the UDP receive thread) post from any thread.
//
// Pending work is one TaskQueue (sim/task_queue.hpp), the same indexed heap
// SimExecutor runs on: tasks due at the same instant run in schedule
// order, and a cancelled timer leaves the queue at once.
//
// This is one of the tree's three genuinely cross-thread surfaces
// (DESIGN.md §10): every field below but the counters is guarded by mu_,
// and the capability annotations let clang's -Wthread-safety prove it.
#pragma once

#include <cstdint>

#include "common/annotations.hpp"
#include "common/metrics.hpp"
#include "sim/executor.hpp"
#include "sim/task_queue.hpp"

namespace amuse {

/// Observability for the wakeup economics of the consumer loop (see run()):
/// one wakeup should amortise over many tasks when producers post in bursts
/// (the batched UDP receive path posts one task per recvmmsg harvest).
struct RealExecutorStats {
  Counter tasks_run;            // tasks executed by run()/run_for()
  Counter wakeups;              // drain cycles that ran at least one task
  Counter max_drain;            // largest batch drained per lock acquisition
};

class RealExecutor final : public Executor {
 public:
  RealExecutor();

  [[nodiscard]] TimePoint now() const override;
  void post(Task fn) override;
  TimerId schedule_at(TimePoint t, Task fn) override;
  void cancel(TimerId id) override;

  [[nodiscard]] RealExecutorStats stats() const { return stats_; }

  /// Runs tasks on the calling thread until stop() is called. Every lock
  /// acquisition drains the whole run of currently-due tasks into a local
  /// batch and executes them outside the lock, so a burst of N posts costs
  /// one wakeup + one mutex round instead of N. A task that posts more work
  /// never extends the in-progress batch (the new work is picked up on the
  /// next drain, after the stop/deadline checks), and stop() takes effect
  /// at the next drain boundary — already-drained tasks still run, exactly
  /// as an already-popped task did before.
  void run();
  /// Runs tasks until `d` of wall time has elapsed.
  void run_for(Duration d);
  /// Wakes a loop currently inside run()/run_for() and makes it return.
  /// Thread-safe. A stop() that lands before the loop has entered is
  /// cleared when the loop starts — callers who need "stop as soon as it
  /// runs" should post a task that calls stop() instead.
  void stop();

 private:
  void run_until_wall(TimePoint deadline, bool has_deadline);

  std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mu_;
  CondVar cv_;
  TaskQueue queue_ AMUSE_GUARDED_BY(mu_);
  // stop() notifies under the lock so the wakeup cannot slip between the
  // loop's check and its cv_ wait.
  bool stop_ AMUSE_GUARDED_BY(mu_) = false;
  RealExecutorStats stats_;  // written by the consumer thread
};

}  // namespace amuse
