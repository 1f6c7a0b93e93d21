// Differential model of the executors' task queue: a SimExecutor driven
// side by side with a std::multimap keyed by (when, seq), the order the
// queue promises. Shared by the seeded property test
// (tests/sim_executor_test.cpp) and the fuzz target
// (fuzz/fuzz_task_queue.cpp), which only differ in where the operations
// come from.
//
// Beyond plain schedule / cancel / step it covers: cancelling stale ids
// (tasks that already ran or were cancelled, whose slots get recycled),
// unknown ids, a task that cancels another from inside its body, and a
// task whose destructor schedules a new task (on cancel and after it ran).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_executor.hpp"

namespace amuse::model {

class TaskQueueModel {
 public:
  /// Trait bits of schedule().
  static constexpr std::uint8_t kCancelsAnother = 1;  // when it runs
  static constexpr std::uint8_t kSchedulesOnDestroy = 2;

  using FailFn = std::function<void(const std::string&)>;
  explicit TaskQueueModel(FailFn fail) : fail_(std::move(fail)) {}
  ~TaskQueueModel() {
    closing_ = true;  // destructor hooks stop scheduling
    ex_.run();
  }

  TaskQueueModel(const TaskQueueModel&) = delete;
  TaskQueueModel& operator=(const TaskQueueModel&) = delete;

  /// Schedules a task `delay_ms` (a small range, so ties are common) from
  /// now.
  void schedule(std::uint32_t delay_ms, std::uint8_t traits) {
    int label = next_label_++;
    TimePoint when = ex_.now() + milliseconds(delay_ms);
    auto at = model_.emplace(Key{when, ++seq_}, label);
    std::shared_ptr<Hook> hook;
    if ((traits & kSchedulesOnDestroy) != 0) {
      hook = std::make_shared<Hook>(this);
    }
    bool cancels = (traits & kCancelsAnother) != 0;
    TimerId id = ex_.schedule_at(when, [this, label, cancels, hook] {
      on_run(label, cancels);
    });
    if (id == kNoTimer) fail("schedule_at returned kNoTimer");
    for (const auto& [other, live] : live_) {
      if (live.id == id) fail("id reused while its task is live");
    }
    live_.emplace(label, Live{id, at});
  }

  /// Cancels the live task `pick` selects (no-op when none is live).
  void cancel_live(std::uint32_t pick) {
    if (live_.empty()) return;
    auto it = std::next(live_.begin(),
                        static_cast<std::ptrdiff_t>(pick % live_.size()));
    TimerId id = it->second.id;
    forget(it);
    ex_.cancel(id);  // may run a destructor hook, which schedules
  }

  /// Cancels an id that names no live task: one whose task already ran or
  /// was cancelled (its slot possibly recycled since), or one never issued.
  void cancel_stale(std::uint32_t pick) {
    TimerId id;
    if (!dead_.empty() && pick % 4 != 0) {
      id = dead_[pick % dead_.size()];
    } else {
      id = (static_cast<TimerId>(pick) << 20) ^ pick;
    }
    for (const auto& [label, live] : live_) {
      if (live.id == id) return;  // a fresh id that happens to be live
    }
    ex_.cancel(id);
  }

  void step() {
    bool expect = !model_.empty();
    if (ex_.step() != expect) fail("step() disagrees with the model");
  }

  void run_until(std::uint32_t delta_ms) {
    TimePoint deadline = ex_.now() + milliseconds(delta_ms);
    ex_.run_until(deadline);
    if (!model_.empty() && model_.begin()->first.first <= deadline) {
      fail("run_until left a due task behind");
    }
    if (ex_.now() != deadline) fail("run_until did not stop at the deadline");
  }

  /// The bookkeeping both sides must agree on after every operation.
  void check() {
    if (ex_.pending() != model_.size()) {
      fail("pending() = " + std::to_string(ex_.pending()) + ", model holds " +
           std::to_string(model_.size()));
    }
    if (ex_.idle() != model_.empty()) fail("idle() disagrees with the model");
    if (ex_.tasks_executed() != ran_) fail("tasks_executed() miscounts");
  }

 private:
  using Key = std::pair<TimePoint, std::uint64_t>;
  using Model = std::multimap<Key, int>;
  struct Live {
    TimerId id;
    Model::iterator at;
  };

  /// Captured by a task; when the task is destroyed, schedules a new one.
  struct Hook {
    explicit Hook(TaskQueueModel* m) : model(m) {}
    ~Hook() { model->hook_fired(); }
    Hook(const Hook&) = delete;
    Hook& operator=(const Hook&) = delete;
    TaskQueueModel* model;
  };

  void fail(const std::string& what) { fail_(what); }

  void forget(std::map<int, Live>::iterator it) {
    dead_.push_back(it->second.id);
    model_.erase(it->second.at);
    live_.erase(it);
  }

  void on_run(int label, bool cancels) {
    if (model_.empty() || model_.begin()->second != label) {
      fail("task " + std::to_string(label) + " ran out of (when, seq) order");
      return;
    }
    if (ex_.now() != model_.begin()->first.first) {
      fail("clock not at the task's due time");
    }
    ++ran_;
    forget(live_.find(label));
    if (cancels && !live_.empty()) cancel_live(cancel_pick_++);
  }

  void hook_fired() {
    if (closing_ || hook_budget_ == 0) return;
    --hook_budget_;
    schedule(static_cast<std::uint32_t>(next_label_ % 3), 0);
  }

  FailFn fail_;
  SimExecutor ex_;
  Model model_;
  std::map<int, Live> live_;  // label → id and model position
  std::vector<TimerId> dead_;
  std::uint64_t seq_ = 0;
  std::uint64_t ran_ = 0;
  int next_label_ = 0;
  std::uint32_t cancel_pick_ = 0;
  int hook_budget_ = 1000;
  bool closing_ = false;
};

}  // namespace amuse::model
