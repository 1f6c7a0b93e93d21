// Timer on the discrete-event executor: one owned deadline per duty, with
// the callback bound once. The RealExecutor half of the contract lives in
// concurrency_stress_test.cpp (the tsan-labelled binary).
#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

TEST(Timer, FiringClearsArmed) {
  SimExecutor ex;
  int fired = 0;
  Timer t(ex, [&] {
    EXPECT_FALSE(t.armed());  // cleared before the callback runs
    ++fired;
  });
  EXPECT_FALSE(t.armed());
  t.arm_after(milliseconds(10));
  EXPECT_TRUE(t.armed());
  ex.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(ex.now(), TimePoint(milliseconds(10)));
}

TEST(Timer, RearmReplacesThePendingDeadline) {
  SimExecutor ex;
  std::vector<TimePoint> fired_at;
  Timer t(ex, [&] { fired_at.push_back(ex.now()); });
  t.arm_after(milliseconds(10));
  t.arm_after(milliseconds(30));
  t.arm_after(milliseconds(20));
  EXPECT_EQ(ex.run(), 1u);
  EXPECT_EQ(fired_at, (std::vector<TimePoint>{TimePoint(milliseconds(20))}));
}

TEST(Timer, CancelIsIdempotent) {
  SimExecutor ex;
  int fired = 0;
  Timer t(ex, [&] { ++fired; });
  t.cancel();  // never armed
  t.arm_after(milliseconds(5));
  t.cancel();
  t.cancel();
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(ex.run(), 0u);
  EXPECT_EQ(fired, 0);
  // Still usable after cancelling.
  t.arm_after(milliseconds(5));
  EXPECT_EQ(ex.run(), 1u);
  EXPECT_EQ(fired, 1);
  t.cancel();  // after firing
  EXPECT_EQ(fired, 1);
}

TEST(Timer, DestroyedBeforeItsDeadlineNeverRuns) {
  SimExecutor ex;
  int fired = 0;
  auto t = std::make_unique<Timer>(ex, [&] { ++fired; });
  t->arm_after(milliseconds(5));
  t.reset();
  EXPECT_EQ(ex.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayRearmItsOwnTimer) {
  SimExecutor ex;
  std::vector<TimePoint> fired_at;
  Timer t(ex, [&] {
    fired_at.push_back(ex.now());
    if (fired_at.size() < 3) t.arm_after(milliseconds(10));
  });
  t.arm_after(milliseconds(10));
  EXPECT_EQ(ex.run(), 3u);
  EXPECT_EQ(fired_at, (std::vector<TimePoint>{TimePoint(milliseconds(10)),
                                              TimePoint(milliseconds(20)),
                                              TimePoint(milliseconds(30))}));
  EXPECT_FALSE(t.armed());
}

}  // namespace
}  // namespace amuse
