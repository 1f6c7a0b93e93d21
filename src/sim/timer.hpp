// Timer: one owned, re-armable deadline on an Executor.
//
// Every scheduled duty of a component (a retransmission, a delayed ack, a
// beacon, a heartbeat, a lease check) is one Timer member. The callback is
// bound once, at construction; arming only picks the deadline. The Timer
// cancels itself when it is destroyed, so a callback capturing its owner
// can never run after the owner is gone. One-shot tasks that carry data
// and have no owner (network deliveries, costed fan-out) stay on
// Executor::schedule_at.
//
// Threading: like the component that owns it, a Timer is touched only on
// its executor's consumer thread (or before that executor's loop starts).
#pragma once

#include <utility>

#include "sim/executor.hpp"

namespace amuse {

class Timer {
 public:
  Timer(Executor& executor, Task callback)
      : executor_(executor), callback_(std::move(callback)) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&&) = delete;
  Timer& operator=(Timer&&) = delete;

  /// Fires the callback after `delay`, replacing any pending deadline.
  void arm_after(Duration delay) {
    cancel();
    id_ = executor_.schedule_after(delay, [this] {
      id_ = kNoTimer;  // cleared first: the callback may re-arm
      callback_();
    });
  }

  /// Drops the pending deadline, if any. Idempotent.
  void cancel() {
    if (id_ == kNoTimer) return;
    executor_.cancel(id_);
    id_ = kNoTimer;
  }

  /// True while a deadline is pending.
  [[nodiscard]] bool armed() const { return id_ != kNoTimer; }

 private:
  Executor& executor_;
  Task callback_;
  TimerId id_ = kNoTimer;
};

}  // namespace amuse
