// Discrete-event simulation executor.
//
// One TaskQueue (sim/task_queue.hpp) of (time, sequence, task). Tasks
// scheduled for the same instant run in scheduling order (the sequence
// number breaks ties), so simulations are fully deterministic for a fixed
// seed — which is what lets the property tests assert exactly-once/FIFO
// semantics under randomised loss without flaky failures. A cancelled task
// leaves the queue at once: pending() and idle() count live work only.
#pragma once

#include <cstdint>

#include "sim/executor.hpp"
#include "sim/task_queue.hpp"

namespace amuse {

class SimExecutor final : public Executor {
 public:
  SimExecutor() = default;

  [[nodiscard]] TimePoint now() const override { return now_; }
  void post(Task fn) override;
  TimerId schedule_at(TimePoint t, Task fn) override;
  void cancel(TimerId id) override;

  /// Runs one queued task (advancing the clock to it). False if idle.
  bool step();

  /// Runs until the queue is empty or `limit` tasks have run.
  /// Returns the number of tasks executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs every task scheduled strictly before or at `deadline`; leaves the
  /// clock at `deadline` even if the queue drained early.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t tasks_executed() const { return executed_; }

 private:
  TaskQueue queue_;
  TimePoint now_{};
  std::uint64_t executed_ = 0;
};

}  // namespace amuse
