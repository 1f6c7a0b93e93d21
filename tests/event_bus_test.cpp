// Event-bus tests over an in-process lossless network: the pub/sub contract
// (§II-C delivery semantics), authorisation gating, purge behaviour,
// quenching and engine parity.
#include "bus/event_bus.hpp"

#include <gtest/gtest.h>

#include "bus/bus_client.hpp"
#include "lossless_network.hpp"
#include "sim/sim_executor.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {
namespace {

struct BusFixture : ::testing::Test {
  BusFixture() : net(ex) {}

  std::unique_ptr<EventBus> make_bus(EventBusConfig cfg = {}) {
    return std::make_unique<EventBus>(ex, net.create_endpoint(), cfg);
  }

  std::unique_ptr<BusClient> make_client(EventBus& bus,
                                         const std::string& device_type,
                                         const std::string& role) {
    auto transport = net.create_endpoint();
    ServiceId id = transport->local_id();
    bus.add_member(MemberInfo{id, device_type, role});
    return std::make_unique<BusClient>(ex, std::move(transport), bus.bus_id());
  }

  SimExecutor ex;
  LosslessNetwork net;
};

TEST_F(BusFixture, SubscribePublishDeliver) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc.pub", "service");
  auto sub = make_client(*bus, "svc.sub", "service");

  std::vector<Event> got;
  sub->subscribe(Filter::for_type("test.ping"),
                 [&](const Event& e) { got.push_back(e); });
  ex.run();

  pub->publish(Event("test.ping", {{"n", 1}}));
  ex.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "test.ping");
  EXPECT_EQ(got[0].get_int("n"), 1);
  EXPECT_EQ(got[0].publisher(), pub->id());
  EXPECT_EQ(bus->stats().published, 1u);
  EXPECT_EQ(bus->stats().deliveries, 1u);
}

TEST_F(BusFixture, PublisherDoesNotReceiveOwnEventUnlessSubscribed) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  int got = 0;
  pub->subscribe(Filter::for_type("other"), [&](const Event&) { ++got; });
  ex.run();
  pub->publish(Event("mine"));
  ex.run();
  EXPECT_EQ(got, 0);

  // But a publisher that *is* subscribed to its own event type gets it.
  pub->subscribe(Filter::for_type("mine"), [&](const Event&) { ++got; });
  ex.run();
  pub->publish(Event("mine"));
  ex.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BusFixture, ExactlyOnceDespiteOverlappingSubscriptions) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");

  int handler_a = 0;
  int handler_b = 0;
  sub->subscribe(Filter::for_type("vitals.heartrate"),
                 [&](const Event&) { ++handler_a; });
  sub->subscribe(Filter::for_type_prefix("vitals."),
                 [&](const Event&) { ++handler_b; });
  ex.run();

  pub->publish(Event("vitals.heartrate"));
  ex.run();

  // One network delivery, both matching handlers invoked.
  EXPECT_EQ(sub->stats().events_received, 1u);
  EXPECT_EQ(handler_a, 1);
  EXPECT_EQ(handler_b, 1);
}

TEST_F(BusFixture, PerSenderFifoOrdering) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");

  std::vector<std::int64_t> order;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { order.push_back(e.get_int("n")); });
  ex.run();
  for (int i = 0; i < 50; ++i) pub->publish(Event("seq", {{"n", i}}));
  ex.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(BusFixture, PublisherSeqIsMonotonicAtReceiver) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");
  std::vector<std::uint64_t> seqs;
  sub->subscribe(Filter::for_type("s"),
                 [&](const Event& e) { seqs.push_back(e.publisher_seq()); });
  ex.run();
  for (int i = 0; i < 10; ++i) pub->publish(Event("s"));
  ex.run();
  ASSERT_EQ(seqs.size(), 10u);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_GT(seqs[i], seqs[i - 1]);
  }
}

TEST_F(BusFixture, UnsubscribeStopsDelivery) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");
  int got = 0;
  std::uint64_t id =
      sub->subscribe(Filter::for_type("t"), [&](const Event&) { ++got; });
  ex.run();
  pub->publish(Event("t"));
  ex.run();
  sub->unsubscribe(id);
  ex.run();
  pub->publish(Event("t"));
  ex.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(bus->stats().no_subscriber, 1u);
}

TEST_F(BusFixture, ClientHandlerMayChangeSubscriptionsFromInsideItsCall) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");
  int first = 0;
  int second = 0;
  int added = 0;
  std::uint64_t first_id = 0;
  std::uint64_t second_id = 0;
  first_id = sub->subscribe(Filter::for_type("t"), [&](const Event&) {
    ++first;
    // Drops itself and the other matched handler, then subscribes enough
    // new handlers to move the client's storage — all while running.
    sub->unsubscribe(first_id);
    sub->unsubscribe(second_id);
    for (int i = 0; i < 64; ++i) {
      sub->subscribe(Filter::for_type("never"),
                     [&](const Event&) { ++added; });
    }
    EXPECT_EQ(first_id, 1u);  // captures still readable
  });
  second_id =
      sub->subscribe(Filter::for_type("t"), [&](const Event&) { ++second; });
  ex.run();

  pub->publish(Event("t"));
  pub->publish(Event("t"));
  ex.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);  // unsubscribed while the event was dispatched
  EXPECT_EQ(added, 0);
}

TEST_F(BusFixture, ContentFiltersSelectByAttributes) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");
  int high = 0;
  Filter f;
  f.where("type", Op::kEq, "vitals.heartrate").where("hr", Op::kGt, 120);
  sub->subscribe(f, [&](const Event&) { ++high; });
  ex.run();
  pub->publish(Event("vitals.heartrate", {{"hr", 80}}));
  pub->publish(Event("vitals.heartrate", {{"hr", 150}}));
  ex.run();
  EXPECT_EQ(high, 1);
}

TEST_F(BusFixture, PurgeMemberDropsSubscriptionsAndQueue) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  auto sub = make_client(*bus, "svc", "service");
  int got = 0;
  sub->subscribe(Filter::for_type("t"), [&](const Event&) { ++got; });
  ex.run();
  EXPECT_EQ(bus->registry().size(), 1u);

  bus->purge_member(sub->id());
  EXPECT_FALSE(bus->has_member(sub->id()));
  EXPECT_EQ(bus->registry().size(), 0u);

  pub->publish(Event("t"));
  ex.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus->stats().no_subscriber, 1u);
}

TEST_F(BusFixture, NonMemberTrafficIgnored) {
  auto bus = make_bus();
  auto stranger_transport = net.create_endpoint();
  BusClient stranger(ex, std::move(stranger_transport), bus->bus_id());
  int got = 0;
  stranger.subscribe(Filter(), [&](const Event&) { ++got; });
  stranger.publish(Event("t"));
  ex.run();
  EXPECT_EQ(bus->stats().published, 0u);
  EXPECT_EQ(bus->registry().size(), 0u);
}

TEST_F(BusFixture, AuthoriserGatesPublishAndSubscribe) {
  auto bus = make_bus();
  bus->set_authoriser([](const MemberInfo& m, AuthAction action,
                         std::string_view topic) {
    if (m.role == "sensor" && action == AuthAction::kSubscribe &&
        topic.starts_with("control.")) {
      return false;
    }
    if (m.role == "guest" && action == AuthAction::kPublish) return false;
    return true;
  });
  auto sensor = make_client(*bus, "sensor.x", "sensor");
  auto guest = make_client(*bus, "console", "guest");

  sensor->subscribe(Filter::for_type("control.threshold"),
                    [](const Event&) {});
  sensor->subscribe(Filter::for_type("vitals.heartrate"), [](const Event&) {});
  ex.run();
  EXPECT_EQ(bus->stats().denied_subscribe, 1u);
  EXPECT_EQ(bus->registry().size(), 1u);

  guest->publish(Event("anything"));
  ex.run();
  EXPECT_EQ(bus->stats().denied_publish, 1u);
  EXPECT_EQ(bus->stats().published, 0u);
}

TEST_F(BusFixture, LocalSubscribersReceiveMemberEvents) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  std::vector<std::string> local;
  bus->subscribe_local(Filter::for_type_prefix(""),
                       [&](const Event& e) { local.emplace_back(e.type()); });
  pub->publish(Event("from.member"));
  bus->publish_local(Event("from.core"));
  ex.run();
  ASSERT_EQ(local.size(), 2u);
  EXPECT_EQ(bus->stats().local_deliveries, 2u);
}

TEST_F(BusFixture, LocalUnsubscribeWorksInsideHandler) {
  auto bus = make_bus();
  int got = 0;
  std::uint64_t id = 0;
  id = bus->subscribe_local(Filter::for_type("t"), [&](const Event&) {
    ++got;
    bus->unsubscribe_local(id);
  });
  bus->publish_local(Event("t"));
  bus->publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BusFixture, LocalHandlerUnsubscribedMidFanOutStillRunsOnce) {
  auto bus = make_bus();
  int first = 0;
  int second = 0;
  std::uint64_t second_id = 0;
  // Local ids ascend, so the first handler runs first in the fan-out and
  // unsubscribes the second, which still gets the event being delivered.
  bus->subscribe_local(Filter::for_type("t"), [&](const Event&) {
    if (++first == 1) bus->unsubscribe_local(second_id);
  });
  second_id = bus->subscribe_local(Filter::for_type("t"),
                                   [&](const Event&) { ++second; });
  bus->publish_local(Event("t"));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  bus->publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 1);
}

TEST_F(BusFixture, LocalHandlerMayPublishFromInsideFanOut) {
  auto bus = make_bus();
  std::vector<std::string> order;
  // A handler that publishes re-enters route() and fan_out() while the
  // outer fan-out still has handlers to run.
  bus->subscribe_local(Filter::for_type("t"), [&](const Event&) {
    order.push_back("t1");
    bus->publish_local(Event("u"));
  });
  bus->subscribe_local(Filter::for_type("t"),
                       [&](const Event&) { order.push_back("t2"); });
  bus->subscribe_local(Filter::for_type("u"),
                       [&](const Event&) { order.push_back("u"); });
  bus->publish_local(Event("t"));
  bus->publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"t1", "u", "t2", "t1", "u", "t2"}));
}

TEST_F(BusFixture, QuenchSuppressesUnwantedPublishes) {
  EventBusConfig cfg;
  cfg.quench = true;
  auto bus = make_bus(cfg);

  auto pub_transport = net.create_endpoint();
  ServiceId pub_id = pub_transport->local_id();
  bus->add_member(MemberInfo{pub_id, "svc", "service"});
  BusClientConfig ccfg;
  ccfg.quench = true;
  BusClient pub(ex, std::move(pub_transport), bus->bus_id(), ccfg);
  auto sub = make_client(*bus, "svc", "service");

  // Subscribe to one type; let the cell's filter table propagate.
  int got = 0;
  sub->subscribe(Filter::for_type("wanted"), [&](const Event&) { ++got; });
  // The subscription change reaches the publisher as a diff on top of the
  // full table it was seeded with at admission.
  ex.run();
  ASSERT_TRUE(pub.mirror().synced());
  EXPECT_TRUE(pub.mirror().interests().contains(Filter::for_type("wanted")));

  EXPECT_TRUE(pub.publish(Event("wanted")));
  EXPECT_FALSE(pub.publish(Event("unwanted")));  // suppressed at source
  ex.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(pub.stats().quenched, 1u);
  // The unwanted event never reached the bus.
  EXPECT_EQ(bus->stats().published, 1u);
}

TEST_F(BusFixture, QuenchFailsOpenBeforeTableArrives) {
  BusClientConfig ccfg;
  ccfg.quench = true;
  auto bus = make_bus();  // bus-side quench off: no tables pushed
  auto t = net.create_endpoint();
  bus->add_member(MemberInfo{t->local_id(), "svc", "service"});
  BusClient pub(ex, std::move(t), bus->bus_id(), ccfg);
  EXPECT_TRUE(pub.publish(Event("anything")));
  ex.run();
  EXPECT_EQ(bus->stats().published, 1u);
}

TEST_F(BusFixture, CarriedMirrorFailsOpenUntilAdmissionConfirms) {
  EventBusConfig cfg;
  cfg.quench = true;
  auto bus = make_bus(cfg);
  auto sub = make_client(*bus, "svc", "service");
  sub->subscribe(Filter::for_type("wanted"), [](const Event&) {});
  ex.run();
  // A mirror carried from an earlier join that holds exactly the cell's
  // current table: its digest rides the admission.
  InterestMirror carried = sub->mirror();
  ASSERT_TRUE(carried.synced());

  auto t = net.create_endpoint();
  bus->add_member(
      MemberInfo{t->local_id(), "svc", "service", carried.held_digest()});
  BusClientConfig ccfg;
  ccfg.quench = true;
  BusClient pub(ex, std::move(t), bus->bus_id(), ccfg);
  pub.adopt_mirror(carried);

  // Until the admission update arrives the carried table is not trusted:
  // the publish goes out.
  EXPECT_FALSE(pub.mirror().synced());
  EXPECT_TRUE(pub.publish(Event("unwanted")));
  ex.run();
  EXPECT_EQ(bus->stats().published, 1u);

  // The admission confirmed the table without re-sending it.
  EXPECT_EQ(bus->stats().tables_elided, 1u);
  ASSERT_TRUE(pub.mirror().synced());
  EXPECT_FALSE(pub.publish(Event("unwanted")));
  EXPECT_EQ(pub.stats().quenched, 1u);
  ex.run();
  EXPECT_EQ(bus->stats().published, 1u);
}

TEST_F(BusFixture, StaleCarriedMirrorIsReplacedAtAdmission) {
  EventBusConfig cfg;
  cfg.quench = true;
  auto bus = make_bus(cfg);
  auto sub = make_client(*bus, "svc", "service");
  sub->subscribe(Filter::for_type("old"), [](const Event&) {});
  ex.run();
  InterestMirror carried = sub->mirror();  // knows only "old"
  int got = 0;
  sub->subscribe(Filter::for_type("new"), [&](const Event&) { ++got; });
  ex.run();

  auto t = net.create_endpoint();
  bus->add_member(
      MemberInfo{t->local_id(), "svc", "service", carried.held_digest()});
  BusClientConfig ccfg;
  ccfg.quench = true;
  BusClient pub(ex, std::move(t), bus->bus_id(), ccfg);
  pub.adopt_mirror(carried);
  // The stale table would quench this; unsynced, it must not.
  EXPECT_TRUE(pub.publish(Event("new")));
  ex.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(bus->stats().tables_elided, 0u);
  ASSERT_TRUE(pub.mirror().synced());
  EXPECT_TRUE(pub.mirror().interests().contains(Filter::for_type("new")));
  EXPECT_TRUE(pub.publish(Event("new")));
  ex.run();
  EXPECT_EQ(got, 2);
}

class BusEngineParity : public ::testing::TestWithParam<BusEngine> {};

TEST_P(BusEngineParity, EndToEndFlowIdenticalAcrossEngines) {
  SimExecutor ex;
  LosslessNetwork net(ex);
  EventBusConfig cfg;
  cfg.engine = GetParam();
  EventBus bus(ex, net.create_endpoint(), cfg);

  auto pt = net.create_endpoint();
  auto st = net.create_endpoint();
  bus.add_member(MemberInfo{pt->local_id(), "svc", "service"});
  bus.add_member(MemberInfo{st->local_id(), "svc", "service"});
  BusClient pub(ex, std::move(pt), bus.bus_id());
  BusClient sub(ex, std::move(st), bus.bus_id());

  std::vector<std::int64_t> got;
  Filter f;
  f.where("type", Op::kEq, "vitals.heartrate").where("hr", Op::kGe, 100);
  sub.subscribe(f, [&](const Event& e) { got.push_back(e.get_int("hr")); });
  ex.run();
  for (int hr : {80, 100, 150, 99}) {
    pub.publish(Event("vitals.heartrate", {{"hr", hr}}));
  }
  ex.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{100, 150}));
}

INSTANTIATE_TEST_SUITE_P(Engines, BusEngineParity,
                         ::testing::Values(BusEngine::kCBased,
                                           BusEngine::kSienaBased,
                                           BusEngine::kBruteForce));

// ---- Encode-once fan-out (the zero-copy event spine).

TEST_F(BusFixture, EncodesOncePerPublishAcrossFanout) {
  auto bus = make_bus();
  auto pub = make_client(*bus, "svc", "service");
  constexpr std::size_t kMembers = 4;
  constexpr std::uint64_t kEvents = 7;
  std::vector<std::unique_ptr<BusClient>> subs;
  std::uint64_t got = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    subs.push_back(make_client(*bus, "svc", "service"));
    subs.back()->subscribe(Filter::for_type("fan"),
                           [&](const Event&) { ++got; });
  }
  ex.run();

  for (std::uint64_t i = 0; i < kEvents; ++i) {
    pub->publish(Event("fan", {{"n", static_cast<std::int64_t>(i)}}));
  }
  ex.run();

  EXPECT_EQ(got, kEvents * kMembers);
  EXPECT_EQ(bus->stats().published, kEvents);
  EXPECT_EQ(bus->stats().deliveries, kEvents * kMembers);
  // The body is serialised exactly once per *publish*, not per delivery…
  EXPECT_EQ(bus->stats().encodes, bus->stats().published);
  // …and every further member in the fan-out reuses the cached bytes.
  EXPECT_EQ(bus->stats().encode_reuses,
            bus->stats().deliveries - bus->stats().encodes);
}

// ---- Forwarding the body as received, or re-serialised canonically.

// A member that speaks the wire protocol in raw bytes: a message it sends
// reaches the bus exactly as given, and it keeps every message the bus
// sends it as it arrived, before any decoding.
struct RawMember {
  RawMember(SimExecutor& ex, std::shared_ptr<Transport> t, ServiceId bus)
      : transport(std::move(t)),
        channel(ex, transport->local_id(), bus, /*session=*/7, {},
                [this](std::span<const Transport::Datagram> frames) {
                  transport->send_batch(frames);
                },
                [this](const SharedBytes& m) {
                  received.emplace_back(m.begin(), m.end());
                }) {
    transport->set_receive_handler([this](ServiceId, BytesView data) {
      if (std::optional<Packet> p = Packet::decode(data)) channel.on_packet(*p);
    });
  }

  /// The event bodies of the kEvent messages received, headers stripped.
  [[nodiscard]] std::vector<Bytes> bodies() const {
    std::vector<Bytes> out;
    for (const Bytes& m : received) {
      auto type = static_cast<std::uint8_t>(m[0] & ~kOriginFlag);
      if (type != static_cast<std::uint8_t>(BusMsgType::kEvent)) continue;
      std::size_t n = (std::size_t{m[1]} << 8) | m[2];
      std::size_t header = 3 + 8 * n + ((m[0] & kOriginFlag) != 0 ? 22 : 0);
      out.emplace_back(m.begin() + static_cast<std::ptrdiff_t>(header),
                       m.end());
    }
    return out;
  }

  std::shared_ptr<Transport> transport;
  ReliableChannel channel;
  std::vector<Bytes> received;
};

// An event body as written by hand: the header, then `attrs` exactly in
// the order and with the bytes given (each a name and its tagged value).
Bytes body_of(ServiceId publisher,
              const std::vector<std::pair<std::string, Bytes>>& attrs) {
  Writer w;
  w.u48(publisher.raw());
  w.u64(4);
  w.i64(5000);
  w.u16(static_cast<std::uint16_t>(attrs.size()));
  for (const auto& [name, value] : attrs) {
    w.str(name);
    w.raw(value);
  }
  return std::move(w).take();
}

Bytes tagged(const Value& v) {
  Writer w;
  v.encode(w);
  return std::move(w).take();
}

Bytes publish_message(BytesView body, const Origin& origin = {}) {
  Bytes m(BusMessage::event_header_size(BusMsgType::kPublish, 0, origin));
  BusMessage::write_event_header(m, BusMsgType::kPublish, {}, origin);
  m.insert(m.end(), body.begin(), body.end());
  return m;
}

TEST_F(BusFixture, NonCanonicalBodiesReachSubscribersReserialised) {
  auto bus = make_bus();
  auto pub_t = net.create_endpoint();
  ServiceId pub_id = pub_t->local_id();
  bus->add_member(MemberInfo{pub_id, "svc", "service"});
  RawMember pub(ex, std::move(pub_t), bus->bus_id());
  auto sub_t = net.create_endpoint();
  bus->add_member(MemberInfo{sub_t->local_id(), "svc", "service"});
  RawMember sub(ex, std::move(sub_t), bus->bus_id());
  (void)sub.channel.send(
      BusMessage::encode_subscribe(1, Filter::for_type_prefix("t.")),
      MsgClass::kControl);
  ex.run();

  const Bytes type = tagged(Value("t.x"));
  const Bytes bool_two{static_cast<std::uint8_t>(ValueType::kBool), 0x02};
  struct Case {
    Bytes sent;
    Bytes canonical;
  };
  const std::vector<Case> cases{
      // Names out of order: sorted.
      {body_of(pub_id, {{"type", type}, {"hr", tagged(Value(80))}}),
       body_of(pub_id, {{"hr", tagged(Value(80))}, {"type", type}})},
      // A repeated name: the last one wins.
      {body_of(pub_id, {{"hr", tagged(Value(80))},
                        {"hr", tagged(Value(95))},
                        {"type", type}}),
       body_of(pub_id, {{"hr", tagged(Value(95))}, {"type", type}})},
      // A bool byte of 2: true, written as 1.
      {body_of(pub_id, {{"alarm", bool_two}, {"type", type}}),
       body_of(pub_id, {{"alarm", tagged(Value(true))}, {"type", type}})},
      // Canonical already, but published under another id: the bus
      // stamps the admitted member's.
      {body_of(ServiceId(0x77), {{"hr", tagged(Value(80))}, {"type", type}}),
       body_of(pub_id, {{"hr", tagged(Value(80))}, {"type", type}})},
      // Canonical and published under its own id: forwarded as sent.
      {body_of(pub_id, {{"hr", tagged(Value(70))}, {"type", type}}),
       body_of(pub_id, {{"hr", tagged(Value(70))}, {"type", type}})},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(pub.channel.send(publish_message(c.sent)));
  }
  ex.run();

  std::vector<Bytes> got = sub.bodies();
  ASSERT_EQ(got.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(got[i], cases[i].canonical) << "case " << i;
  }
  EXPECT_EQ(bus->stats().encodes, cases.size());
}

TEST_F(BusFixture, GatewayRelayIsForwardedUnderTheGatewaysId) {
  auto bus = make_bus();
  auto gw_t = net.create_endpoint();
  ServiceId gw_id = gw_t->local_id();
  bus->add_member(MemberInfo{gw_id, "smc.gateway", std::string(kGatewayRole)});
  RawMember gateway(ex, std::move(gw_t), bus->bus_id());
  auto sub_t = net.create_endpoint();
  bus->add_member(MemberInfo{sub_t->local_id(), "svc", "service"});
  RawMember sub(ex, std::move(sub_t), bus->bus_id());
  (void)sub.channel.send(
      BusMessage::encode_subscribe(1, Filter::for_type("t.relayed")),
      MsgClass::kControl);
  ex.run();

  // A canonical body from a publisher in the far cell, relayed under that
  // cell's origin stamp: the origin travels on, the publisher becomes the
  // gateway member's id.
  const Bytes type = tagged(Value("t.relayed"));
  const ServiceId far_publisher(0x0A0B0C0D0E0F);
  const Origin far{ServiceId(0xFA), 2, 9};
  ASSERT_TRUE(gateway.channel.send(publish_message(
      body_of(far_publisher, {{"n", tagged(Value(3))}, {"type", type}}), far)));
  ex.run();

  std::vector<Bytes> got = sub.bodies();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], body_of(gw_id, {{"n", tagged(Value(3))}, {"type", type}}));
  ASSERT_FALSE(sub.received.empty());
  BusMessage m = BusMessage::decode(sub.received.back());
  EXPECT_EQ(m.event->origin(), far);
}

TEST_F(BusFixture, LocalHandlersShareOneImmutableEvent) {
  auto bus = make_bus();
  std::uintptr_t addr_first = 0;
  std::uintptr_t addr_second = 0;
  std::int64_t seen = 0;
  bus->subscribe_local(Filter::for_type("shared"), [&](const Event& e) {
    addr_first = reinterpret_cast<std::uintptr_t>(&e);
    Event mine = e;                    // a subscriber's private copy…
    mine.set("n", std::int64_t{999});  // …can be mutated freely
  });
  bus->subscribe_local(Filter::for_type("shared"), [&](const Event& e) {
    addr_second = reinterpret_cast<std::uintptr_t>(&e);
    seen = e.get_int("n");
  });
  bus->publish_local(Event("shared", {{"n", 42}}));
  ex.run();
  // One shared instance reaches every handler — no per-handler copies —
  // and an earlier subscriber's mutation of its own copy is invisible.
  EXPECT_EQ(addr_first, addr_second);
  EXPECT_NE(addr_first, 0u);
  EXPECT_EQ(seen, 42);
}

TEST_F(BusFixture, QuenchSkipsNoOpTablePushes) {
  EventBusConfig cfg;
  cfg.quench = true;
  auto bus = make_bus(cfg);
  auto a = make_client(*bus, "svc", "service");
  auto b = make_client(*bus, "svc", "service");

  a->subscribe(Filter::for_type("t"), [](const Event&) {});
  ex.run();
  std::uint64_t updates = bus->stats().quench_updates;
  std::uint64_t applied = a->stats().interest_updates;
  std::uint64_t version = a->mirror().version();

  // The same filter from another member leaves the effective set — and so
  // the cell's view — unchanged: nothing is pushed.
  std::uint64_t dup = b->subscribe(Filter::for_type("t"), [](const Event&) {});
  ex.run();
  EXPECT_EQ(bus->stats().quench_updates, updates);
  EXPECT_EQ(a->stats().interest_updates, applied);

  // Dropping the duplicate is equally a no-op.
  b->unsubscribe(dup);
  ex.run();
  EXPECT_EQ(bus->stats().quench_updates, updates);
  EXPECT_EQ(a->stats().interest_updates, applied);
  EXPECT_EQ(a->mirror().version(), version);

  // So is a filter the view already covers: compaction keeps the view.
  a->subscribe(Filter::for_type("t").where("x", Op::kGt, 1),
               [](const Event&) {});
  ex.run();
  EXPECT_EQ(bus->stats().quench_updates, updates);

  // A genuinely new filter still pushes — one diff, to every member.
  a->subscribe(Filter::for_type("u"), [](const Event&) {});
  ex.run();
  EXPECT_EQ(bus->stats().quench_updates, updates + 1);
  EXPECT_EQ(a->stats().interest_updates, applied + 1);
  EXPECT_EQ(b->stats().interest_updates, applied + 1);
  EXPECT_EQ(a->mirror().version(), version + 1);
  EXPECT_TRUE(b->mirror().interests().contains(Filter::for_type("u")));
}


// Records how a BusClient's channel hands frames to its transport.
class CountingTransport final : public Transport {
 public:
  ServiceId local_id() const override {
    return ServiceId::from_addr_port(0x0A000009, 900);
  }
  void send(ServiceId, BytesView) override { ++sends; }
  void send_batch(std::span<const Datagram> batch) override {
    batch_sizes.push_back(batch.size());
  }
  void broadcast(BytesView) override {}
  void set_receive_handler(ReceiveHandler) override {}

  std::size_t sends = 0;
  std::vector<std::size_t> batch_sizes;  // one entry per send_batch call
};

TEST(BusClientEgress, MultiFrameRoundIsOneSendBatchCall) {
  SimExecutor ex;
  auto transport = std::make_shared<CountingTransport>();
  BusClientConfig cfg;
  cfg.channel.max_fragment_payload = 32;  // the publish fragments
  BusClient client(ex, transport, ServiceId::from_addr_port(0x0A000001, 1),
                   cfg);
  ASSERT_TRUE(client.publish(Event("big", {{"note", std::string(100, 'x')}})));
  ASSERT_EQ(transport->batch_sizes.size(), 1u);
  EXPECT_GE(transport->batch_sizes[0], 4u);
  EXPECT_EQ(transport->sends, 0u);
  EXPECT_EQ(client.channel_stats().frame_bursts, 1u);
  EXPECT_EQ(client.channel_stats().datagrams_sent, transport->batch_sizes[0]);
}

}  // namespace
}  // namespace amuse
