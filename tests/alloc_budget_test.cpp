// Allocation budgets of the steady-state message path and of subscribing.
//
// A plain cell over the simulated network on ideal hosts: a publisher
// SmcMember → SelfManagedCell → a subscriber SmcMember. After a warm-up
// (joins, first-use growth of every pooled buffer), each publish — building
// the event, the member's channel, the bus's route and fan-out, the
// proxy's channel, both directions of acks and every timer involved — must
// stay within a fixed number of heap allocations; so must each subscription,
// from BusClient::subscribe until the bus's registry holds its filter. The
// simulation is deterministic, so the counts are exact and the same in
// every build mode.
//
// Its own executable: the global operator new below counts every
// allocation in the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bus/messages.hpp"

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  // largest single request
}  // namespace

// All out of line: gcc flags a `malloc` or `free` it sees inlined next to
// a `new` or `delete` as a mismatched pair (-Wmismatched-new-delete),
// although these pairs match.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (n > largest && !g_largest.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace amuse {
namespace {

// Measured at 3.8 allocations per publish (5.3 while each channel held
// its messages in two deques and a delivery decoded its matched ids into
// a vector; 14.7 while events were decoded into owned attribute vectors
// and re-encoded at the bus; 41.5 before the executors, the simulated
// network, the registry and the channel stopped allocating per message).
// An event is its encoded bytes, shared from the publisher's channel to
// the subscriber's handler, and the subscriber reads the matched ids in
// place, so what is left is: building the event in the test (its buffer
// and the buffer's shared owner), one shared payload buffer per received
// DATA frame at the bus and at the subscriber, and the block churn of the
// two channel logs a publish passes through (0.5: a 480-byte deque block
// holds four entries). The headroom absorbs a container growing on a
// different round; anything beyond it means a per-message allocation
// crept back onto the path.
constexpr double kBudgetPerPublish = 3.8 + 1.3;

// Measured at 6.0 allocations per subscription, 2.3 of them within
// BusClient::subscribe (17.0 and 7.3 while the filter was copied into a
// message on the member and into the registry's record at the bus, and the
// registry filed each member's ids in a std::map). What is left is the
// handler's slot on the member, the encoded message, the received frame at
// the bus, the decoded filter (moved from there into the registry) and the
// matcher's bucket for a new key. The headroom absorbs a container growing
// on a different round.
constexpr double kBudgetPerSubscribe = 6.0 + 1.5;

const Bytes kPsk = to_bytes("alloc-budget-key");

/// A started cell with a publisher and a subscriber that have joined.
class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    net.set_default_link(profiles::perfect_link());
    SimHost& core = net.add_host("core", profiles::ideal_host());
    SimHost& edge = net.add_host("edge", profiles::ideal_host());
    SmcCellConfig cfg;
    cfg.name = "ward";
    cfg.pre_shared_key = kPsk;
    cell = std::make_unique<SelfManagedCell>(ex, net.create_endpoint(core),
                                             net.create_endpoint(core), cfg);
    cell->start();

    auto member = [&](const std::string& type, const std::string& role) {
      SmcMemberConfig mc;
      mc.agent.cell_name = "ward";
      mc.agent.pre_shared_key = kPsk;
      mc.agent.device_type = type;
      mc.agent.role = role;
      return std::make_unique<SmcMember>(ex, net.create_endpoint(edge), mc);
    };
    publisher = member("sensor.vitals", "sensor");
    subscriber = member("console.monitor", "monitor");
    publisher->start();
    subscriber->start();
    for (int i = 0;
         i < 1000 && !(publisher->joined() && subscriber->joined()); ++i) {
      ex.run_for(milliseconds(10));
    }
    ASSERT_TRUE(publisher->joined() && subscriber->joined());
  }

  SimExecutor ex;
  SimNetwork net{ex, /*seed=*/7};
  std::unique_ptr<SelfManagedCell> cell;
  std::unique_ptr<SmcMember> publisher;
  std::unique_ptr<SmcMember> subscriber;
};

TEST_F(AllocBudget, SteadyStatePublishStaysWithinBudget) {
  std::uint64_t received = 0;
  subscriber->subscribe(Filter::for_type("vitals.heartrate"),
                        [&](const Event&) { ++received; });
  ex.run_for(milliseconds(100));

  // One round: a small burst of publishes, run until all are delivered,
  // then let the delayed acks and other timers of the round fire.
  std::uint64_t published = 0;
  auto round = [&] {
    for (int i = 0; i < 4; ++i) {
      ++published;
      publisher->publish(Event(
          "vitals.heartrate",
          {{"hr", static_cast<std::int64_t>(60 + published % 80)},
           {"patient", "P07"}}));
    }
    while (received < published && ex.step()) {
    }
    ex.run_for(milliseconds(5));
  };

  for (int r = 0; r < 500; ++r) round();
  ASSERT_EQ(received, published) << "warm-up lost deliveries";

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t published_before = published;
  for (int r = 0; r < 2000; ++r) round();
  const std::uint64_t allocations = g_allocations.load() - before;
  const std::uint64_t measured = published - published_before;
  ASSERT_EQ(received, published) << "lost deliveries while measuring";

  double per_publish =
      static_cast<double>(allocations) / static_cast<double>(measured);
  RecordProperty("allocations_per_publish", std::to_string(per_publish));
  EXPECT_LE(per_publish, kBudgetPerPublish)
      << allocations << " allocations over " << measured << " publishes";
}

// A console's per-patient alarm threshold: type, patient and one bound.
Filter threshold(int i) {
  std::string patient = "P" + std::to_string(1000 + i % 5000);
  return Filter::for_type("obs.vitals")
      .where("patient", Op::kEq, patient)
      .where("hr", Op::kGt, 90 + i % 60);
}

TEST_F(AllocBudget, SubscribeStaysWithinBudget) {
  BusClient& client = *subscriber->client();
  const SubscriptionRegistry& registry = cell->bus().registry();
  // The filters are built up front: their allocations are the caller's.
  constexpr int kWarmup = 2000;
  constexpr int kMeasured = 4000;
  std::vector<Filter> filters;
  filters.reserve(kWarmup + kMeasured);
  for (int i = 0; i < kWarmup + kMeasured; ++i) filters.push_back(threshold(i));

  // One round: a burst of subscriptions, run until the registry holds
  // them all, then let the acks and other timers of the round fire.
  std::size_t next = 0;
  std::uint64_t on_member = 0;  // within BusClient::subscribe itself
  auto round = [&] {
    std::size_t want = registry.size() + 8;
    const std::uint64_t at_call = g_allocations.load();
    for (int i = 0; i < 8; ++i) {
      (void)client.subscribe(filters[next++], [](const Event&) {});
    }
    on_member += g_allocations.load() - at_call;
    while (registry.size() < want && ex.step()) {
    }
    ex.run_for(milliseconds(5));
    return registry.size() == want;
  };

  while (next < kWarmup) ASSERT_TRUE(round()) << "warm-up lost subscriptions";
  on_member = 0;
  const std::uint64_t before = g_allocations.load();
  while (next < filters.size()) {
    ASSERT_TRUE(round()) << "lost subscriptions while measuring";
  }
  const std::uint64_t allocations = g_allocations.load() - before;

  double per_subscribe =
      static_cast<double>(allocations) / static_cast<double>(kMeasured);
  RecordProperty("allocations_per_subscribe", std::to_string(per_subscribe));
  RecordProperty("of_which_in_client_subscribe",
                 std::to_string(static_cast<double>(on_member) / kMeasured));
  EXPECT_LE(per_subscribe, kBudgetPerSubscribe)
      << allocations << " allocations over " << kMeasured << " subscriptions";
}

// A kSubscribe whose filter claims 65,535 constraints over a 20-byte body
// is rejected without reserving room for them first.
TEST_F(AllocBudget, ForgedConstraintCountAllocatesNoLargeBuffer) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(BusMsgType::kSubscribe));
  w.u64(1);
  w.u16(0xffff);
  for (int i = 0; i < 3; ++i) {
    w.str("");
    w.u8(static_cast<std::uint8_t>(Op::kEq));
    Value(true).encode(w);
  }
  w.raw(Bytes{1, 2, 3});
  ASSERT_EQ(w.size(), 1 + 8 + 20u);
  g_largest.store(0);
  EXPECT_THROW((void)BusMessage::decode(w.bytes()), DecodeError);
  EXPECT_LT(g_largest.load(), 1024u);
}

}  // namespace
}  // namespace amuse
