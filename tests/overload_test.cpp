// Bounded persistent delivery (DESIGN.md §9): byte-accurate retention
// budgets, data/control priority classes, deterministic shedding with
// accounting, and watermark-driven publisher backpressure — at the channel
// layer and end to end through a full SMC under a slow consumer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel_sink.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "wire/delivery_budget.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {
namespace {

// ---------------------------------------------------------------------------
// DeliveryBudget: the refcounted bus-wide ledger.

SharedPayload shared_payload(std::size_t head_bytes,
                             SharedBytes tail) {
  return SharedPayload(Bytes(head_bytes, 0x41), std::move(tail));
}

TEST(DeliveryBudget, ChargesSharedTailOncePerRetainer) {
  DeliveryBudget budget(100);
  auto tail = SharedBytes(Bytes(50, 0x42));
  SharedPayload p1 = shared_payload(10, tail);
  SharedPayload p2 = shared_payload(5, tail);

  budget.charge(p1);
  EXPECT_EQ(budget.used(), 60u);  // head 10 + tail 50
  budget.charge(p2);
  EXPECT_EQ(budget.used(), 65u);  // second head only; tail already counted

  budget.release(p1);
  EXPECT_EQ(budget.used(), 55u);  // tail stays while p2 retains it
  budget.release(p2);
  EXPECT_EQ(budget.used(), 0u);

  // A fresh retainer after the last release charges the tail again.
  budget.charge(p1);
  EXPECT_EQ(budget.used(), 60u);
  budget.release(p1);
}

TEST(DeliveryBudget, OverLimitIsStrict) {
  DeliveryBudget budget(20);
  SharedPayload p = shared_payload(20, {});
  budget.charge(p);
  EXPECT_EQ(budget.used(), 20u);
  EXPECT_FALSE(budget.over_limit());  // exactly at the limit is legal
  SharedPayload extra = shared_payload(1, {});
  budget.charge(extra);
  EXPECT_TRUE(budget.over_limit());
  budget.release(extra);
  budget.release(p);
}

// ---------------------------------------------------------------------------
// Channel-level budgets, classes, shedding and watermarks. Same two-channel
// lossy-pipe harness as reliable_channel_test.

class ChannelPair {
 public:
  explicit ChannelPair(ReliableChannelConfig config = {}) {
    a = std::make_unique<ReliableChannel>(
        ex, id_a, id_b, 111, config,
        each_frame([this](const Packet& p) { pipe(p, drop_from_a, b); }),
        [this](BytesView msg) { at_a.emplace_back(to_string(msg)); },
        [this] { ++failures; });
    b = std::make_unique<ReliableChannel>(
        ex, id_b, id_a, 222, config,
        each_frame([this](const Packet& p) { pipe(p, drop_from_b, a); }),
        [this](BytesView msg) { at_b.emplace_back(to_string(msg)); },
        [this] { ++failures; });
  }

  void pipe(const Packet& p, std::function<bool(const Packet&)>& drop,
            std::unique_ptr<ReliableChannel>& target) {
    if (drop && drop(p)) return;
    Bytes wire = p.encode();
    ex.schedule_after(milliseconds(1), [&target, wire] {
      if (target) {
        std::optional<Packet> q = Packet::decode(wire);
        if (q) target->on_packet(*q);
      }
    });
  }

  SimExecutor ex;
  ServiceId id_a = ServiceId::from_addr_port(0x0A000001, 1000);
  ServiceId id_b = ServiceId::from_addr_port(0x0A000002, 2000);
  std::function<bool(const Packet&)> drop_from_a;
  std::function<bool(const Packet&)> drop_from_b;
  std::unique_ptr<ReliableChannel> a;
  std::unique_ptr<ReliableChannel> b;
  std::vector<std::string> at_a;
  std::vector<std::string> at_b;
  int failures = 0;
};

std::string msg30(int i) {
  std::string s = "m" + std::to_string(i);
  s.resize(30, '.');
  return s;
}

TEST(ChannelBudget, ByteBudgetShedsOldestQueuedDataFirst) {
  ReliableChannelConfig cfg;
  cfg.max_queue_bytes = 300;     // 10 × 30-byte messages
  cfg.max_batch_messages = 1;    // no Nagle: the window fills to 8 at once
  ChannelPair p(cfg);
  // Blackhole a→b: the window fills and stays in flight, the queue grows.
  p.drop_from_a = [](const Packet&) { return true; };

  std::vector<std::string> shed;
  p.a->set_on_shed([&shed](BytesView m) { shed.emplace_back(to_string(m)); });

  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(p.a->send(to_bytes(msg30(i)))) << "shedding should make room";
    EXPECT_LE(p.a->retained_bytes(), 300u);
  }
  // Window holds m0..m7 (in flight, never shed); the queue keeps only the
  // newest two 30-byte messages; everything between was shed oldest-first.
  ASSERT_EQ(shed.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(shed[static_cast<size_t>(i)],
                                         msg30(8 + i));
  EXPECT_EQ(p.a->stats().events_shed, 10u);
  EXPECT_EQ(p.a->stats().bytes_shed, 300u);

  // Heal: survivors arrive exactly once, in order, with no phantom gaps.
  p.drop_from_a = nullptr;
  p.ex.run();
  std::vector<std::string> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(msg30(i));
  expect.push_back(msg30(18));
  expect.push_back(msg30(19));
  EXPECT_EQ(p.at_b, expect);
  EXPECT_EQ(p.a->retained_bytes(), 0u);
}

TEST(ChannelBudget, ControlBypassesBudgetAndJumpsQueuedData) {
  ReliableChannelConfig cfg;
  cfg.max_queue_bytes = 300;
  cfg.max_batch_messages = 1;  // no Nagle: the window fills to 8 at once
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };

  for (int i = 0; i < 10; ++i) {  // fill to the budget: window 8 + queue 2
    ASSERT_TRUE(p.a->send(to_bytes(msg30(i))));
  }
  ASSERT_EQ(p.a->retained_bytes(), 300u);

  // Control is accepted above the budget, sheds nothing, and is queued
  // ahead of the waiting data (but behind the in-flight window).
  std::uint64_t sheds_before = p.a->stats().events_shed;
  EXPECT_TRUE(p.a->send(to_bytes("CTRL"), MsgClass::kControl));
  EXPECT_EQ(p.a->stats().events_shed, sheds_before);
  EXPECT_EQ(p.a->stats().control_sent, 1u);
  EXPECT_GT(p.a->retained_bytes(), 300u);

  p.drop_from_a = nullptr;
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 11u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(p.at_b[static_cast<size_t>(i)],
                                        msg30(i));
  EXPECT_EQ(p.at_b[8], "CTRL");  // overtook m8, m9
  EXPECT_EQ(p.at_b[9], msg30(8));
  EXPECT_EQ(p.at_b[10], msg30(9));
}

TEST(ChannelBudget, CountCapRejectionIsAccountedNotSilent) {
  ReliableChannelConfig cfg;
  cfg.max_queue = 2;  // legacy count cap, no byte budget
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };

  std::vector<std::string> shed;
  p.a->set_on_shed([&shed](BytesView m) { shed.emplace_back(to_string(m)); });

  for (int i = 0; i < 10; ++i) (void)p.a->send(to_bytes("d" + std::to_string(i)));
  // Window 8 + queue 2 accepted; the last 0 queued slots reject the rest.
  EXPECT_FALSE(p.a->send(to_bytes("rejected")));
  ASSERT_FALSE(shed.empty());
  EXPECT_EQ(shed.back(), "rejected");
  EXPECT_EQ(p.a->stats().events_shed, shed.size());
  EXPECT_GT(p.a->stats().bytes_shed, 0u);

  // Control is exempt from the count cap too.
  EXPECT_TRUE(p.a->send(to_bytes("CTRL"), MsgClass::kControl));
}

TEST(ChannelBudget, ShedRemovesWholeFragmentTrain) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 20;
  cfg.window = 1;
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };

  std::vector<std::string> shed;
  p.a->set_on_shed([&shed](BytesView m) { shed.emplace_back(to_string(m)); });

  ASSERT_TRUE(p.a->send(to_bytes("head")));  // occupies the window
  std::string big(50, 'B');                  // queues as a 3-fragment train
  ASSERT_TRUE(p.a->send(to_bytes(big)));
  ASSERT_TRUE(p.a->send(to_bytes("tail")));

  std::size_t before = p.a->retained_bytes();
  ASSERT_TRUE(p.a->shed_oldest_data());
  // The whole train went as one message: the tap sees the reassembled
  // payload, the stats count one message of 50 bytes.
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], big);
  EXPECT_EQ(p.a->stats().events_shed, 1u);
  EXPECT_EQ(p.a->stats().bytes_shed, 50u);
  EXPECT_EQ(p.a->retained_bytes(), before - 50);

  p.drop_from_a = nullptr;
  p.ex.run();
  EXPECT_EQ(p.at_b, (std::vector<std::string>{"head", "tail"}));
}

TEST(ChannelBudget, ShedAndControlStepPastTrainBegunInWindow) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 20;
  cfg.window = 1;
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };

  std::vector<std::string> shed;
  p.a->set_on_shed([&shed](BytesView m) { shed.emplace_back(to_string(m)); });

  std::string big(50, 'B');  // a 3-fragment train: its head takes the window
  ASSERT_TRUE(p.a->send(to_bytes(big)));
  ASSERT_EQ(p.a->in_flight(), 1u);
  // The peer may hold the train's head: its rest is neither shed nor
  // split by control.
  ASSERT_TRUE(p.a->send(to_bytes("tail")));
  ASSERT_TRUE(p.a->shed_oldest_data());
  EXPECT_EQ(shed, (std::vector<std::string>{"tail"}));
  EXPECT_FALSE(p.a->shed_oldest_data());
  ASSERT_TRUE(p.a->send(to_bytes("tail2")));
  ASSERT_TRUE(p.a->send(to_bytes("CTRL"), MsgClass::kControl));

  p.drop_from_a = nullptr;
  p.ex.run();
  EXPECT_EQ(p.at_b, (std::vector<std::string>{big, "CTRL", "tail2"}));
}

TEST(ChannelBudget, WatermarksRaiseAndReleasePressure) {
  ReliableChannelConfig cfg;
  cfg.flow_high_water = 200;
  cfg.flow_low_water = 100;
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };

  std::vector<bool> signals;
  p.a->set_on_pressure([&signals](bool up) { signals.push_back(up); });

  for (int i = 0; i < 6; ++i) ASSERT_TRUE(p.a->send(to_bytes(msg30(i))));
  EXPECT_FALSE(p.a->under_pressure());  // 180 < 200
  ASSERT_TRUE(p.a->send(to_bytes(msg30(6))));
  EXPECT_TRUE(p.a->under_pressure());  // 210 ≥ 200
  ASSERT_EQ(signals, (std::vector<bool>{true}));
  EXPECT_EQ(p.a->stats().pressure_raised, 1u);

  p.drop_from_a = nullptr;
  p.ex.run();  // drains to zero ≤ low water
  EXPECT_FALSE(p.a->under_pressure());
  EXPECT_EQ(signals, (std::vector<bool>{true, false}));
  EXPECT_EQ(p.a->stats().peak_retained_bytes, 210u);
}

TEST(ChannelBudget, SharedLedgerCountsFanOutTailOnce) {
  auto ledger = std::make_shared<DeliveryBudget>(10000);
  ReliableChannelConfig cfg;
  cfg.shared_budget = ledger;
  ChannelPair p1(cfg);
  ChannelPair p2(cfg);
  p1.drop_from_a = [](const Packet&) { return true; };
  p2.drop_from_a = [](const Packet&) { return true; };

  // The fan-out shape: one encode-once body queued to two members.
  auto body = SharedBytes(Bytes(500, 0x45));
  ASSERT_TRUE(p1.a->send(SharedPayload(to_bytes("h1"), body)));
  ASSERT_TRUE(p2.a->send(SharedPayload(to_bytes("h2"), body)));
  EXPECT_EQ(ledger->used(), 2u + 2u + 500u);  // both heads, body once

  p1.drop_from_a = nullptr;
  p1.ex.run();  // p1 delivers and releases its retainer; body stays charged
  EXPECT_EQ(ledger->used(), 2u + 500u);
  p2.drop_from_a = nullptr;
  p2.ex.run();
  EXPECT_EQ(ledger->used(), 0u);
}

// ---------------------------------------------------------------------------
// End to end: a full SMC with one slow consumer. Budgets engage on the
// stalled member's proxy, sheds are surfaced through BusObserver::on_shed,
// the bus raises kFlowControl, the publisher defers, and the healthy member
// still receives every event in FIFO order.

const Bytes kPsk = to_bytes("overload-key");
constexpr const char* kCell = "overload-cell";

struct OverloadFixture : ::testing::Test {
  OverloadFixture() : net(ex, 20260806) {
    base = profiles::usb_ip_link();
    net.set_default_link(base);
    core = &net.add_host("core", profiles::ideal_host());

    SmcCellConfig cc;
    cc.name = kCell;
    cc.pre_shared_key = kPsk;
    cc.bus.quench = quench;
    cc.bus.channel.max_queue_bytes = 2048;
    cc.bus.channel.flow_high_water = 1536;
    cc.bus.channel.flow_low_water = 512;
    cc.bus.bus_queue_bytes = 8192;
    cc.discovery.beacon_interval = milliseconds(300);
    cc.discovery.heartbeat_interval = milliseconds(300);
    cc.discovery.suspect_after = seconds(2);
    cc.discovery.purge_after = seconds(30);  // nobody purges in these tests
    cc.discovery.sweep_interval = milliseconds(150);
    cell = std::make_unique<SelfManagedCell>(
        ex, net.create_endpoint(*core), net.create_endpoint(*core), cc);
    cell->start();
  }

  std::unique_ptr<SmcMember> make_member(int i) {
    SimHost& h = net.add_host("m" + std::to_string(i),
                              profiles::ideal_host());
    hosts.push_back(&h);
    SmcMemberConfig mc;
    mc.agent.cell_name = kCell;
    mc.agent.pre_shared_key = kPsk;
    mc.agent.device_type = "overload.m" + std::to_string(i);
    // The stall outlives the beacon gap; the member must ride it out
    // rather than declaring the cell lost mid-test.
    mc.agent.cell_lost_after = seconds(30);
    mc.quench = quench;
    return std::make_unique<SmcMember>(ex, net.create_endpoint(h), mc);
  }

  void stall(int i) {
    LinkModel lm = base;
    lm.loss = 1.0;
    net.update_link_oneway(*core, *hosts[static_cast<std::size_t>(i)], lm);
  }
  void heal(int i) {
    net.update_link(*core, *hosts[static_cast<std::size_t>(i)], base);
  }

  bool quench = false;
  SimExecutor ex;
  SimNetwork net;
  LinkModel base;
  SimHost* core = nullptr;
  std::vector<SimHost*> hosts;
  std::unique_ptr<SelfManagedCell> cell;
};

TEST_F(OverloadFixture, SlowConsumerShedsAccountablyWhileHealthyKeepsAll) {
  auto m0 = make_member(0);  // the slow consumer (subscribes "load")
  auto m1 = make_member(1);  // the publisher
  auto m2 = make_member(2);  // the healthy observer (subscribes "steady")

  std::vector<std::int64_t> at_m2;
  (void)m0->subscribe(Filter::for_type("load"), [](const Event&) {});
  (void)m2->subscribe(Filter::for_type("steady"), [&at_m2](const Event& e) {
    at_m2.push_back(e.get_int("n"));
  });

  std::vector<std::pair<std::uint64_t, std::int64_t>> shed_records;
  BusObserver obs;
  obs.on_shed = [&shed_records](ServiceId member, const Event& e) {
    shed_records.emplace_back(member.raw(), e.get_int("n"));
  };
  cell->bus().set_observer(std::move(obs));

  m0->start();
  m1->start();
  m2->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(m0->joined() && m1->joined() && m2->joined());

  stall(0);
  // One unpaced 30-event burst outruns the flow-control round trip: the
  // stalled member's 2 KB budget must overflow and shed. Only m0 matches
  // "load", so every shed is attributable to it.
  for (int k = 0; k < 30; ++k) {
    Event e("load");
    e.set("n", k);
    e.set("pad", std::string(100, 'x'));  // ~160 B encoded: 30 exceed 2 KB
    (void)m1->publish(std::move(e));
  }
  ex.run_for(milliseconds(500));

  // Paced follow-up traffic for the healthy member. By now the bus has
  // announced pressure, so the member-side library defers these instead of
  // piling more onto the overloaded cell; they flush after the release.
  bool saw_pressure = false;
  bool saw_publish_soft_fail = false;
  int steady = 0;
  for (int batch = 0; batch < 10; ++batch) {
    for (int k = 0; k < 3; ++k) {
      Event e("steady");
      e.set("n", steady++);
      (void)m1->publish(std::move(e));
    }
    if (m1->client() != nullptr && m1->client()->pressured()) {
      saw_pressure = true;
      // Under pressure a direct client publish soft-fails (still sent).
      Event probe("probe.noop");
      probe.set("n", -1);
      saw_publish_soft_fail |= !m1->client()->publish(std::move(probe));
    }
    ex.run_for(milliseconds(200));
  }

  // Sheds happened, every one attributed to the stalled member, and the
  // publisher felt backpressure end to end.
  EXPECT_GT(cell->bus().stats().events_shed, 0u);
  ASSERT_FALSE(shed_records.empty());
  for (const auto& [member_raw, n] : shed_records) {
    EXPECT_EQ(member_raw, m0->id().raw());
    EXPECT_GE(n, 0);
  }
  EXPECT_TRUE(saw_pressure);
  EXPECT_TRUE(saw_publish_soft_fail);
  EXPECT_GE(cell->bus().stats().flow_control_signals, 1u);
  EXPECT_GT(m1->stats().pressure_deferrals, 0u);

  heal(0);
  ex.run_for(seconds(20));

  // Pressure released, deferred publishes flushed.
  EXPECT_FALSE(cell->bus().flow_pressure());
  EXPECT_EQ(m1->offline_pending(), 0u);

  // The healthy member received every paced event exactly once, in FIFO
  // order — overload at m0 never cost m2 anything.
  ASSERT_EQ(at_m2.size(), static_cast<std::size_t>(steady));
  for (int i = 0; i < steady; ++i) {
    EXPECT_EQ(at_m2[static_cast<std::size_t>(i)], i);
  }
  // And the bus-wide ledger is drained.
  ASSERT_NE(cell->bus().shared_budget(), nullptr);
  EXPECT_EQ(cell->bus().shared_budget()->used(), 0u);
}

TEST_F(OverloadFixture, FullDataQueueCannotStarveQuenchUpdates) {
  // Re-build the cell with quenching on (the fixture default is off).
  quench = true;
  SmcCellConfig cc;
  cc.name = kCell;
  cc.pre_shared_key = kPsk;
  cc.bus.quench = true;
  cc.bus.channel.max_queue_bytes = 2048;
  cc.bus.channel.flow_high_water = 1536;
  cc.bus.channel.flow_low_water = 512;
  cc.discovery.beacon_interval = milliseconds(300);
  cc.discovery.heartbeat_interval = milliseconds(300);
  cc.discovery.suspect_after = seconds(2);
  cc.discovery.purge_after = seconds(30);
  cc.discovery.sweep_interval = milliseconds(150);
  cell = std::make_unique<SelfManagedCell>(
      ex, net.create_endpoint(*core), net.create_endpoint(*core), cc);
  cell->start();

  auto m0 = make_member(0);  // slow consumer whose quench table must update
  auto m1 = make_member(1);  // publisher
  auto m2 = make_member(2);  // subscription churner

  (void)m0->subscribe(Filter::for_type("load"), [](const Event&) {});
  m0->start();
  m1->start();
  m2->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(m0->joined() && m1->joined() && m2->joined());

  stall(0);
  // Saturate m0's proxy queue in one unpaced burst so its 2 KB data budget
  // sheds (paced traffic would be held back by flow control instead)...
  for (int k = 0; k < 30; ++k) {
    Event e("load");
    e.set("n", k);
    e.set("pad", std::string(100, 'x'));  // ~160 B encoded: 30 exceed 2 KB
    (void)m1->publish(std::move(e));
  }
  ex.run_for(seconds(1));
  EXPECT_GT(cell->bus().stats().events_shed, 0u);

  // ...then change the global filter set mid-overload. The filter-table
  // diff to the stalled member rides the control class: it must survive the full
  // data queue and land after the heal.
  (void)m2->subscribe(Filter::for_type("alarm.extra"), [](const Event&) {});
  ex.run_for(seconds(1));

  heal(0);
  ex.run_for(seconds(20));

  ASSERT_TRUE(m0->joined());
  ASSERT_NE(m0->client(), nullptr);
  const InterestMirror& table = m0->client()->mirror();
  ASSERT_TRUE(table.synced());
  Event probe("alarm.extra");
  EXPECT_TRUE(table.interests().matches_any(probe))
      << "the mid-overload quench update never reached the stalled member";
}

}  // namespace
}  // namespace amuse
