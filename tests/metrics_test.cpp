#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bus/event_bus.hpp"

namespace amuse {
namespace {

TEST(Counter, CopyIsASnapshot) {
  Counter c;
  c += 5;
  Counter snap = c;
  ++c;
  EXPECT_EQ(snap, 5u);
  EXPECT_EQ(c.value(), 6u);

  // A struct of counters copies as a whole value, and stays copyable.
  EventBus::Stats live;
  live.published += 3;
  EventBus::Stats before = live;
  ++live.published;
  EXPECT_EQ(before.published, 3u);
  EXPECT_EQ(live.published - before.published, 1u);
}

TEST(Counter, RaiseToOnlyRises) {
  Counter peak;
  peak.raise_to(10);
  peak.raise_to(4);
  EXPECT_EQ(peak, 10u);
  peak.raise_to(11);
  EXPECT_EQ(peak, 11u);
}

TEST(Counter, AssigningResets) {
  Counter c;
  c += 9;
  c = 0;
  EXPECT_EQ(c, 0u);
  c = 42;
  EXPECT_EQ(c, 42u);

  Counter other;
  other += 2;
  c = other;
  EXPECT_EQ(c, 2u);
}

TEST(Counter, AddSharedFromSeveralThreadsSumsExactly) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 20'000;
  Counter c;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add_shared(1);
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c, kThreads * kAdds);
}

}  // namespace
}  // namespace amuse
