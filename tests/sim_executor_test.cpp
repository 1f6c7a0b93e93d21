// Tests for the discrete-event executor: deterministic ordering is what the
// whole simulated evaluation rests on.
#include "sim/sim_executor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "task_queue_model.hpp"

namespace amuse {
namespace {

TEST(SimExecutor, StartsAtEpochAndIdle) {
  SimExecutor ex;
  EXPECT_EQ(ex.now().time_since_epoch().count(), 0);
  EXPECT_TRUE(ex.idle());
  EXPECT_FALSE(ex.step());
}

TEST(SimExecutor, RunsTasksInTimeOrder) {
  SimExecutor ex;
  std::vector<int> order;
  ex.schedule_at(TimePoint(milliseconds(30)), [&] { order.push_back(3); });
  ex.schedule_at(TimePoint(milliseconds(10)), [&] { order.push_back(1); });
  ex.schedule_at(TimePoint(milliseconds(20)), [&] { order.push_back(2); });
  ex.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), TimePoint(milliseconds(30)));
}

TEST(SimExecutor, SameInstantRunsInScheduleOrder) {
  SimExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    ex.schedule_at(TimePoint(milliseconds(5)), [&, i] { order.push_back(i); });
  }
  ex.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimExecutor, PostRunsAtCurrentTime) {
  SimExecutor ex;
  TimePoint when;
  ex.schedule_at(TimePoint(seconds(2)), [&] {
    ex.post([&] { when = ex.now(); });
  });
  ex.run();
  EXPECT_EQ(when, TimePoint(seconds(2)));
}

TEST(SimExecutor, SchedulingInThePastClampsToNow) {
  SimExecutor ex;
  ex.schedule_at(TimePoint(seconds(5)), [&] {
    ex.schedule_at(TimePoint(seconds(1)), [&] {
      EXPECT_EQ(ex.now(), TimePoint(seconds(5)));
    });
  });
  ex.run();
  EXPECT_EQ(ex.now(), TimePoint(seconds(5)));
}

TEST(SimExecutor, CancelPreventsExecution) {
  SimExecutor ex;
  bool ran = false;
  TimerId id = ex.schedule_after(seconds(1), [&] { ran = true; });
  ex.cancel(id);
  ex.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.tasks_executed(), 0u);
}

TEST(SimExecutor, CancelUnknownIdIsNoop) {
  SimExecutor ex;
  ex.cancel(999);
  ex.cancel(kNoTimer);
  EXPECT_TRUE(ex.idle());
}

TEST(SimExecutor, CancelFromWithinTask) {
  SimExecutor ex;
  bool second_ran = false;
  TimerId second = ex.schedule_after(seconds(2), [&] { second_ran = true; });
  ex.schedule_after(seconds(1), [&] { ex.cancel(second); });
  ex.run();
  EXPECT_FALSE(second_ran);
}

TEST(SimExecutor, RunUntilAdvancesClockToDeadline) {
  SimExecutor ex;
  int count = 0;
  ex.schedule_after(milliseconds(100), [&] { ++count; });
  ex.schedule_after(milliseconds(900), [&] { ++count; });
  ex.run_until(TimePoint(milliseconds(500)));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(ex.now(), TimePoint(milliseconds(500)));
  EXPECT_EQ(ex.pending(), 1u);
  ex.run_for(seconds(1));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(ex.now(), TimePoint(milliseconds(1500)));
}

TEST(SimExecutor, RunUntilIncludesTasksAtDeadline) {
  SimExecutor ex;
  bool ran = false;
  ex.schedule_at(TimePoint(seconds(1)), [&] { ran = true; });
  ex.run_until(TimePoint(seconds(1)));
  EXPECT_TRUE(ran);
}

TEST(SimExecutor, RunLimitBoundsWork) {
  SimExecutor ex;
  // A self-rescheduling task would run forever without the limit.
  std::function<void()> loop = [&] { ex.schedule_after(milliseconds(1), loop); };
  ex.schedule_after(milliseconds(1), loop);
  std::size_t executed = ex.run(100);
  EXPECT_EQ(executed, 100u);
}

TEST(SimExecutor, ScheduleAfterUsesCurrentTime) {
  SimExecutor ex;
  TimePoint fired;
  ex.schedule_after(seconds(1), [&] {
    ex.schedule_after(seconds(2), [&] { fired = ex.now(); });
  });
  ex.run();
  EXPECT_EQ(fired, TimePoint(seconds(3)));
}

TEST(SimExecutor, TasksExecutedCounter) {
  SimExecutor ex;
  for (int i = 0; i < 5; ++i) ex.post([] {});
  ex.run();
  EXPECT_EQ(ex.tasks_executed(), 5u);
}

TEST(SimExecutor, CancelledTasksAreNotPending) {
  SimExecutor ex;
  TimerId id = ex.schedule_after(seconds(1), [] {});
  EXPECT_EQ(ex.pending(), 1u);
  ex.cancel(id);
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_TRUE(ex.idle());
  // Of two tasks, cancelling one leaves exactly the other.
  TimerId a = ex.schedule_after(seconds(1), [] {});
  ex.schedule_after(seconds(2), [] {});
  ex.cancel(a);
  EXPECT_EQ(ex.pending(), 1u);
  EXPECT_EQ(ex.run(), 1u);
  EXPECT_TRUE(ex.idle());
}

TEST(SimExecutor, StaleIdCannotCancelARecycledSlot) {
  SimExecutor ex;
  TimerId first = ex.schedule_after(seconds(1), [] {});
  ex.cancel(first);
  // The freed slot is reused by the next task under a new id.
  bool ran = false;
  TimerId second = ex.schedule_after(seconds(1), [&] { ran = true; });
  EXPECT_NE(first, second);
  ex.cancel(first);
  EXPECT_EQ(ex.pending(), 1u);
  ex.run();
  EXPECT_TRUE(ran);
  ex.cancel(second);  // already ran: a no-op too
  EXPECT_TRUE(ex.idle());
}

TEST(SimExecutor, CancelledTaskIsDestroyedAtCancel) {
  SimExecutor ex;
  auto token = std::make_shared<int>(0);
  TimerId id = ex.schedule_after(seconds(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  ex.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimExecutor, TaskDestructorMayScheduleOnCancel) {
  SimExecutor ex;
  bool follow_up = false;
  struct OnDestroy {
    SimExecutor& ex;
    bool& flag;
    ~OnDestroy() {
      ex.schedule_after(seconds(1), [&f = flag] { f = true; });
    }
  };
  auto hook = std::make_shared<OnDestroy>(ex, follow_up);
  TimerId id = ex.schedule_after(seconds(5), [hook] {});
  hook.reset();
  ex.cancel(id);
  EXPECT_EQ(ex.pending(), 1u);
  ex.run();
  EXPECT_TRUE(follow_up);
  EXPECT_EQ(ex.now(), TimePoint(seconds(1)));
}

// Differential property test: random schedule / cancel / step / run_until
// sequences against a std::multimap keyed by (when, seq). Every task checks
// it is the model's minimum when it runs; pending(), idle() and
// tasks_executed() are compared after every operation.
class SimExecutorModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimExecutorModel, MatchesMultimapOrder) {
  Rng rng(GetParam(), 0x71a5c);
  model::TaskQueueModel m([](const std::string& what) { FAIL() << what; });
  for (int op = 0; op < 3000 && !::testing::Test::HasFailure(); ++op) {
    switch (rng.bounded(10)) {
      case 0: case 1: case 2: case 3:
        m.schedule(rng.bounded(4),
                   static_cast<std::uint8_t>(rng.bounded(4)));
        break;
      case 4:
        m.cancel_live(rng.bounded(1u << 16));
        break;
      case 5:
        m.cancel_stale(rng.bounded(1u << 16));
        break;
      case 6: case 7: case 8:
        m.step();
        break;
      default:
        m.run_until(rng.bounded(3));
        break;
    }
    m.check();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimExecutorModel,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace amuse
