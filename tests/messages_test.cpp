// Bus message codec tests.
#include "bus/messages.hpp"

#include <gtest/gtest.h>

#include "pubsub/codec.hpp"

namespace amuse {
namespace {

TEST(BusMessage, PublishRoundTrip) {
  Event e("vitals.heartrate", {{"hr", 72}});
  e.set_publisher(ServiceId(5));
  e.set_publisher_seq(9);
  BusMessage m = BusMessage::publish(e);
  BusMessage back = BusMessage::decode(m.encode());
  EXPECT_EQ(back.type, BusMsgType::kPublish);
  ASSERT_TRUE(back.event.has_value());
  EXPECT_EQ(*back.event, e);
  EXPECT_EQ(back.event->publisher_seq(), 9u);
}

TEST(BusMessage, DeliverCarriesMatchedIds) {
  Event e("t");
  BusMessage m = BusMessage::deliver(e, {3, 1, 7});
  BusMessage back = BusMessage::decode(m.encode());
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(back.matched, (std::vector<std::uint64_t>{3, 1, 7}));
  EXPECT_EQ(*back.event, e);
}

TEST(BusMessage, EventHeaderPlusBodyMatchesDeliverEncoding) {
  // The encode-once fan-out sends header ++ shared-body; the result must be
  // indistinguishable on the wire from the whole-message encoding.
  Event e("vitals.heartrate", {{"hr", 72}, {"unit", "bpm"}});
  e.set_publisher(ServiceId(5));
  e.set_publisher_seq(9);
  std::vector<std::uint64_t> matched{4, 2};

  Bytes framed = BusMessage::encode_event_header(matched);
  Bytes body = encode_event(e);
  framed.insert(framed.end(), body.begin(), body.end());

  EXPECT_EQ(framed, BusMessage::deliver(e, matched).encode());
  BusMessage back = BusMessage::decode(framed);
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(back.matched, matched);
  EXPECT_EQ(*back.event, e);
}

TEST(BusMessage, EncodePublishMatchesMessageEncoding) {
  Event e("control.threshold", {{"value", 3.5}});
  e.set_publisher(ServiceId(8));
  EXPECT_EQ(BusMessage::encode_publish(e), BusMessage::publish(e).encode());
}

TEST(BusMessage, SubscribeRoundTrip) {
  Filter f;
  f.where("type", Op::kPrefix, "alarm.").where("level", Op::kEq, "high");
  BusMessage m = BusMessage::subscribe(42, f);
  BusMessage back = BusMessage::decode(m.encode());
  EXPECT_EQ(back.type, BusMsgType::kSubscribe);
  EXPECT_EQ(back.sub_id, 42u);
  ASSERT_TRUE(back.filter.has_value());
  EXPECT_EQ(*back.filter, f);
}

TEST(BusMessage, UnsubscribeRoundTrip) {
  BusMessage back = BusMessage::decode(BusMessage::unsubscribe(17).encode());
  EXPECT_EQ(back.type, BusMsgType::kUnsubscribe);
  EXPECT_EQ(back.sub_id, 17u);
}

TEST(BusMessage, QuenchUpdateRoundTrip) {
  std::vector<Filter> filters;
  filters.push_back(Filter::for_type("a"));
  Filter f2;
  f2.where("x", Op::kGt, 5);
  filters.push_back(f2);
  filters.push_back(Filter());
  BusMessage back =
      BusMessage::decode(BusMessage::quench_update(filters).encode());
  EXPECT_EQ(back.type, BusMsgType::kQuenchUpdate);
  ASSERT_EQ(back.quench_filters.size(), 3u);
  EXPECT_EQ(back.quench_filters[0], filters[0]);
  EXPECT_EQ(back.quench_filters[1], filters[1]);
  EXPECT_TRUE(back.quench_filters[2].empty());
}

TEST(BusMessage, FlowControlRoundTrip) {
  for (bool pressure : {true, false}) {
    BusMessage back =
        BusMessage::decode(BusMessage::flow_control(pressure).encode());
    EXPECT_EQ(back.type, BusMsgType::kFlowControl);
    EXPECT_EQ(back.pressure, pressure);
  }
}

TEST(BusMessage, FlowControlRejectsTruncation) {
  Bytes wire = BusMessage::flow_control(true).encode();
  for (std::size_t len = 1; len < wire.size(); ++len) {
    EXPECT_THROW((void)BusMessage::decode(BytesView(wire.data(), len)),
                 DecodeError)
        << len;
  }
}

TEST(BusMessage, DecodeRejectsBadType) {
  Bytes junk{0};
  EXPECT_THROW((void)BusMessage::decode(junk), DecodeError);
  junk[0] = 200;
  EXPECT_THROW((void)BusMessage::decode(junk), DecodeError);
}

TEST(BusMessage, DecodeRejectsTruncation) {
  Bytes wire = BusMessage::subscribe(1, Filter::for_type("a")).encode();
  for (std::size_t len = 1; len < wire.size(); ++len) {
    EXPECT_THROW((void)BusMessage::decode(BytesView(wire.data(), len)),
                 DecodeError)
        << len;
  }
}

TEST(BusMessage, DecodeRejectsTrailingBytes) {
  Bytes wire = BusMessage::unsubscribe(1).encode();
  wire.push_back(0);
  EXPECT_THROW((void)BusMessage::decode(wire), DecodeError);
}

// ---- The origin stamp in the kPublish/kEvent header (DESIGN.md §11).

Event golden_event() {
  Event e("alarm.cardiac", {{"hr", 188}, {"level", "high"}});
  e.set_publisher(ServiceId(0x0A0000010001ULL));
  e.set_publisher_seq(7);
  e.set_timestamp(TimePoint(Duration(123456789)));
  return e;
}

// encode_event(golden_event()), byte for byte as the pre-stamp format had it.
const Bytes kGoldenBody{
    0x0a, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x07, 0x5b, 0xcd, 0x15, 0x00, 0x03,
    0x00, 0x02, 0x68, 0x72, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xbc, 0x00, 0x05, 0x6c, 0x65, 0x76, 0x65, 0x6c, 0x04, 0x00, 0x04, 0x68,
    0x69, 0x67, 0x68, 0x00, 0x04, 0x74, 0x79, 0x70, 0x65, 0x04, 0x00, 0x0d,
    0x61, 0x6c, 0x61, 0x72, 0x6d, 0x2e, 0x63, 0x61, 0x72, 0x64, 0x69, 0x61,
    0x63};

Bytes concat(Bytes head, const Bytes& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST(FederationOriginCodec, UnstampedFramesAreByteIdenticalToGolden) {
  // An unstamped frame must not move by a byte: every non-federated,
  // non-HA cell (the paper's experiments, the benchmark) keeps its wire.
  Event e = golden_event();
  EXPECT_EQ(encode_event(e), kGoldenBody);
  Bytes publish = concat({0x01}, kGoldenBody);
  Bytes deliver = concat({0x02, 0x00, 0x02, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
                          0, 0, 0, 0, 1},
                         kGoldenBody);
  EXPECT_EQ(BusMessage::publish(e).encode(), publish);
  EXPECT_EQ(BusMessage::encode_publish(e), publish);
  EXPECT_EQ(BusMessage::deliver(e, {3, 1}).encode(), deliver);
  EXPECT_EQ(concat(BusMessage::encode_event_header({3, 1}, e.origin()),
                   encode_event(e)),
            deliver);
}

TEST(FederationOriginCodec, StampedFramesRoundTrip) {
  Event e = golden_event();
  const Origin origin{ServiceId(0x0A0000020002ULL), 3, 0x0102030405060708ULL};
  e.set_origin(origin);

  // The stamp rides the header, 22 B, behind the type byte's flag bit;
  // the body is the same shared encoding.
  Bytes publish = BusMessage::publish(e).encode();
  EXPECT_EQ(Origin::kWireSize, 22u);
  EXPECT_EQ(publish.size(), 1 + Origin::kWireSize + kGoldenBody.size());
  EXPECT_EQ(publish[0], 0x01 | kOriginFlag);
  EXPECT_EQ(BusMessage::encode_publish(e), publish);
  BusMessage back = BusMessage::decode(publish);
  EXPECT_EQ(back.type, BusMsgType::kPublish);
  EXPECT_EQ(back.event->origin(), origin);
  EXPECT_EQ(*back.event, e);

  Bytes deliver = BusMessage::deliver(e, {3, 1}).encode();
  EXPECT_EQ(deliver, concat(BusMessage::encode_event_header({3, 1}, origin),
                            kGoldenBody));
  back = BusMessage::decode(deliver);
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(back.matched, (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(back.event->origin(), origin);
  EXPECT_EQ(*back.event, e);

  // The stamp is metadata, not content: no attribute carries it.
  EXPECT_EQ(back.event->size(), e.size());
  EXPECT_EQ(encode_event(*back.event), kGoldenBody);
}

TEST(FederationOriginCodec, FlagRejectedOnEveryOtherType) {
  std::vector<Bytes> frames{
      BusMessage::subscribe(1, Filter::for_type("a")).encode(),
      BusMessage::unsubscribe(1).encode(),
      BusMessage::quench_update({Filter::for_type("a")}).encode(),
      BusMessage::flow_control(true).encode(),
      BusMessage::interest_resync_request().encode(),
      BusMessage::repl_resync_request().encode(),
  };
  for (Bytes& frame : frames) {
    EXPECT_NO_THROW((void)BusMessage::decode(frame));
    frame[0] |= kOriginFlag;
    EXPECT_THROW((void)BusMessage::decode(frame), DecodeError)
        << static_cast<int>(frame[0]);
  }
}

TEST(FederationOriginCodec, StampWithoutCellOrTruncatedIsRejected) {
  Event e = golden_event();
  e.set_origin(Origin{ServiceId(9), 1, 1});
  Bytes wire = BusMessage::publish(e).encode();
  for (std::size_t len = 1; len < 1 + Origin::kWireSize; ++len) {
    EXPECT_THROW((void)BusMessage::decode(BytesView(wire.data(), len)),
                 DecodeError)
        << len;
  }
  // A flagged frame whose stamp names no cell is malformed, not unstamped.
  for (std::size_t i = 1; i <= 6; ++i) wire[i] = 0;
  EXPECT_THROW((void)BusMessage::decode(wire), DecodeError);
}

}  // namespace
}  // namespace amuse
