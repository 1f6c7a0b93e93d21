// Proxy tests: the translating proxy's device protocol (translation, acks,
// dedup, stop-and-wait command delivery, purge) and the bootstrap factory.
#include <gtest/gtest.h>

#include "proxy/bootstrap.hpp"
#include "proxy/forwarding_proxy.hpp"
#include "proxy/translating_proxy.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

// A fake bus that records everything proxies do.
class FakeBus final : public BusPort {
 public:
  explicit FakeBus(Executor& ex) : ex_(ex) {}

  void member_publish(ServiceId member, Event event) override {
    published.emplace_back(member, std::move(event));
  }
  void member_subscribe(ServiceId member, std::uint64_t local_id,
                        Filter filter) override {
    subscriptions.push_back({member, local_id, std::move(filter)});
  }
  void member_unsubscribe(ServiceId member, std::uint64_t local_id) override {
    unsubscribes.emplace_back(member, local_id);
  }
  void send_datagram(ServiceId dst, BytesView frame) override {
    sent.emplace_back(dst, Bytes(frame.begin(), frame.end()));
  }
  Executor& executor() override { return ex_; }
  ServiceId bus_id() const override { return ServiceId(0xB05); }
  std::uint32_t bus_session() const override { return 77; }
  const ReliableChannelConfig& channel_config() const override {
    return cfg_;
  }

  struct Sub {
    ServiceId member;
    std::uint64_t local_id;
    Filter filter;
  };
  Executor& ex_;
  ReliableChannelConfig cfg_;
  std::vector<std::pair<ServiceId, Event>> published;
  std::vector<Sub> subscriptions;
  std::vector<std::pair<ServiceId, std::uint64_t>> unsubscribes;
  std::vector<std::pair<ServiceId, Bytes>> sent;
};

// Minimal codec: readings are ASCII integers → Event("fake.reading"),
// commands are Event("fake.cmd"){n} → single byte n.
class FakeCodec final : public DeviceCodec {
 public:
  explicit FakeCodec(bool ack = true) : ack_(ack) {}
  std::optional<Event> decode_reading(BytesView payload) override {
    std::string text = to_string(payload);
    if (text.empty() || text == "garbage") return std::nullopt;
    Event e("fake.reading");
    e.set("n", std::int64_t{std::atoll(text.c_str())});
    return e;
  }
  std::optional<Bytes> encode_command(const Event& event) override {
    if (event.type() != "fake.cmd") return std::nullopt;
    return Bytes{static_cast<std::uint8_t>(event.get_int("n"))};
  }
  std::vector<Filter> initial_subscriptions() override {
    return {Filter::for_type("fake.cmd")};
  }
  bool readings_need_ack() const override { return ack_; }

 private:
  bool ack_;
};

MemberInfo member() {
  return MemberInfo{ServiceId(0xDE1), "fake.device", "sensor"};
}

// Wraps a fresh event the way the bus fan-out would.
EncodedEvent wrap(Event e) { return EncodedEvent(freeze(std::move(e))); }

DeviceFrame reading(std::uint16_t seq, const std::string& text) {
  DeviceFrame f;
  f.type = DeviceFrameType::kReading;
  f.seq = seq;
  f.payload = to_bytes(text);
  return f;
}

struct TranslatingFixture : ::testing::Test {
  SimExecutor ex;
  FakeBus bus{ex};
  TranslatingProxyConfig cfg;
};

TEST_F(TranslatingFixture, RegistersInitialSubscriptionsOnCreation) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>());
  ASSERT_EQ(bus.subscriptions.size(), 1u);
  EXPECT_EQ(bus.subscriptions[0].member, member().id);
  EXPECT_EQ(bus.subscriptions[0].filter, Filter::for_type("fake.cmd"));
}

TEST_F(TranslatingFixture, DecodesReadingPublishesAndAcks) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>());
  proxy.on_datagram(reading(1, "42").encode());

  ASSERT_EQ(bus.published.size(), 1u);
  EXPECT_EQ(bus.published[0].second.type(), "fake.reading");
  EXPECT_EQ(bus.published[0].second.get_int("n"), 42);

  ASSERT_EQ(bus.sent.size(), 1u);  // the ack
  auto ack = DeviceFrame::decode(bus.sent[0].second);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, DeviceFrameType::kAck);
  EXPECT_EQ(ack->seq, 1);
}

TEST_F(TranslatingFixture, NoAckWhenCodecDoesNotWantThem) {
  TranslatingProxy proxy(bus, member(),
                         std::make_unique<FakeCodec>(/*ack=*/false));
  proxy.on_datagram(reading(1, "5").encode());
  EXPECT_EQ(bus.published.size(), 1u);
  EXPECT_TRUE(bus.sent.empty());
}

TEST_F(TranslatingFixture, DuplicateReadingsAckedButNotRepublished) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>());
  proxy.on_datagram(reading(1, "42").encode());
  proxy.on_datagram(reading(1, "42").encode());  // retransmit from device
  EXPECT_EQ(bus.published.size(), 1u);
  EXPECT_EQ(bus.sent.size(), 2u);  // both copies acked
  EXPECT_EQ(proxy.stats().readings_duplicate, 1u);
}

TEST_F(TranslatingFixture, OldReadingsAfterNewerAreDropped) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>());
  proxy.on_datagram(reading(5, "55").encode());
  proxy.on_datagram(reading(3, "33").encode());  // late reorder
  EXPECT_EQ(bus.published.size(), 1u);
  EXPECT_EQ(proxy.stats().readings_duplicate, 1u);
}

TEST_F(TranslatingFixture, UndecodableReadingCountedAndAcked) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>());
  proxy.on_datagram(reading(1, "garbage").encode());
  EXPECT_TRUE(bus.published.empty());
  EXPECT_EQ(proxy.stats().readings_undecodable, 1u);
  EXPECT_EQ(bus.sent.size(), 1u);
}

TEST_F(TranslatingFixture, CommandsAreStopAndWait) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 1}})), {});
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 2}})), {});
  // Only the head of the queue is in flight.
  ASSERT_EQ(bus.sent.size(), 1u);
  auto cmd1 = DeviceFrame::decode(bus.sent[0].second);
  EXPECT_EQ(cmd1->type, DeviceFrameType::kCommand);
  EXPECT_EQ(cmd1->payload, Bytes{1});
  EXPECT_EQ(proxy.pending(), 2u);

  // Ack the first: the second goes out.
  DeviceFrame ack;
  ack.type = DeviceFrameType::kAck;
  ack.seq = cmd1->seq;
  proxy.on_datagram(ack.encode());
  ASSERT_EQ(bus.sent.size(), 2u);
  auto cmd2 = DeviceFrame::decode(bus.sent[1].second);
  EXPECT_EQ(cmd2->payload, Bytes{2});
  EXPECT_EQ(proxy.pending(), 1u);
}

TEST_F(TranslatingFixture, CommandsRetransmitUntilAcked) {
  cfg.resend_interval = milliseconds(50);
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 9}})), {});
  ex.run_for(milliseconds(400));
  EXPECT_GE(proxy.stats().command_retransmits, 2u);
  EXPECT_GE(bus.sent.size(), 3u);
  // All retransmissions carry the same sequence number.
  auto first = DeviceFrame::decode(bus.sent[0].second);
  auto last = DeviceFrame::decode(bus.sent.back().second);
  EXPECT_EQ(first->seq, last->seq);
}

TEST_F(TranslatingFixture, StallsAfterMaxRetriesAndRecoversOnAck) {
  cfg.resend_interval = milliseconds(10);
  cfg.max_retries = 2;
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 9}})), {});
  ex.run_for(seconds(5));
  EXPECT_TRUE(proxy.stalled());
  std::size_t sent_before = bus.sent.size();

  // An ack for the head clears it and un-stalls the pipeline.
  auto head = DeviceFrame::decode(bus.sent.back().second);
  DeviceFrame ack;
  ack.type = DeviceFrameType::kAck;
  ack.seq = head->seq;
  proxy.on_datagram(ack.encode());
  EXPECT_FALSE(proxy.stalled());
  EXPECT_EQ(proxy.pending(), 0u);
  EXPECT_GE(bus.sent.size(), sent_before);
}

TEST_F(TranslatingFixture, UntranslatableEventsSkipped) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.deliver_event(wrap(Event("not.for.this.device")), {});
  EXPECT_TRUE(bus.sent.empty());
  EXPECT_EQ(proxy.stats().events_untranslatable, 1u);
}

TEST_F(TranslatingFixture, PurgeDestroysOutboundQueue) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 1}})), {});
  proxy.deliver_event(wrap(Event("fake.cmd", {{"n", 2}})), {});
  EXPECT_EQ(proxy.pending(), 2u);
  proxy.on_purge();
  EXPECT_EQ(proxy.pending(), 0u);
  // And no lingering retransmissions.
  std::size_t sent_before = bus.sent.size();
  ex.run_for(seconds(5));
  EXPECT_EQ(bus.sent.size(), sent_before);
}

TEST_F(TranslatingFixture, MalformedDatagramsIgnored) {
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  proxy.on_datagram(to_bytes("not a device frame"));
  Bytes short_frame{0xD5};
  proxy.on_datagram(short_frame);
  EXPECT_TRUE(bus.published.empty());
  EXPECT_TRUE(bus.sent.empty());
}

TEST_F(TranslatingFixture, QueueOverflowCounted) {
  cfg.max_queue = 2;
  TranslatingProxy proxy(bus, member(), std::make_unique<FakeCodec>(), cfg);
  for (int i = 0; i < 5; ++i) {
    proxy.deliver_event(wrap(Event("fake.cmd", {{"n", i}})), {});
  }
  EXPECT_EQ(proxy.pending(), 2u);
  EXPECT_EQ(proxy.stats().queue_overflow, 3u);
}

// ---- Encode-once fan-out through forwarding proxies.

TEST(ForwardingFanout, DeliveredFramesAreByteIdenticalAcrossMembers) {
  SimExecutor ex;
  FakeBus bus(ex);
  ForwardingProxy p1(bus, MemberInfo{ServiceId(0xA), "svc", "r"});
  ForwardingProxy p2(bus, MemberInfo{ServiceId(0xB), "svc", "r"});

  Event e("fan.out", {{"n", 7}, {"unit", "bpm"}});
  e.set_publisher(bus.bus_id());
  e.set_publisher_seq(3);
  std::vector<std::uint64_t> matched{3, 9};

  EncodedEvent enc = wrap(e);
  p1.deliver_event(enc, matched);
  p2.deliver_event(enc, matched);

  ASSERT_EQ(bus.sent.size(), 2u);
  std::optional<Packet> f1 = Packet::decode(bus.sent[0].second);
  std::optional<Packet> f2 = Packet::decode(bus.sent[1].second);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  // The shared body makes every member's frame payload bitwise identical,
  // and identical to the legacy whole-message encoding.
  EXPECT_EQ(f1->payload, f2->payload);
  EXPECT_EQ(f1->payload, BusMessage::deliver(e, matched).encode());
}

// ---- Bootstrap factory.

TEST(ProxyFactory, DefaultsToForwardingProxy) {
  SimExecutor ex;
  FakeBus bus(ex);
  ProxyFactory factory;
  auto proxy = factory.create(bus, MemberInfo{ServiceId(1), "unknown", "r"});
  EXPECT_NE(dynamic_cast<ForwardingProxy*>(proxy.get()), nullptr);
}

TEST(ProxyFactory, LongestPrefixWins) {
  SimExecutor ex;
  FakeBus bus(ex);
  ProxyFactory factory;
  std::string chosen;
  factory.register_type("sensor.", [&](BusPort& b, const MemberInfo& i) {
    chosen = "generic";
    return std::make_unique<ForwardingProxy>(b, i);
  });
  factory.register_type("sensor.ecg", [&](BusPort& b, const MemberInfo& i) {
    chosen = "specific";
    return std::make_unique<ForwardingProxy>(b, i);
  });

  (void)factory.create(bus, MemberInfo{ServiceId(1), "sensor.temp", "r"});
  EXPECT_EQ(chosen, "generic");
  (void)factory.create(bus, MemberInfo{ServiceId(2), "sensor.ecg", "r"});
  EXPECT_EQ(chosen, "specific");
  EXPECT_EQ(factory.registered_types(), 2u);
}

TEST(ProxyFactory, CustomDefault) {
  SimExecutor ex;
  FakeBus bus(ex);
  ProxyFactory factory;
  bool used = false;
  factory.set_default([&](BusPort& b, const MemberInfo& i) {
    used = true;
    return std::make_unique<ForwardingProxy>(b, i);
  });
  (void)factory.create(bus, MemberInfo{ServiceId(1), "whatever", "r"});
  EXPECT_TRUE(used);
}

}  // namespace
}  // namespace amuse
