// Bus message codec tests.
#include "bus/messages.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "event_frame.hpp"
#include "pubsub/codec.hpp"

namespace amuse {
namespace {

TEST(BusMessage, PublishRoundTrip) {
  Event e("vitals.heartrate", {{"hr", 72}});
  e.set_publisher(ServiceId(5));
  e.set_publisher_seq(9);
  BusMessage back = BusMessage::decode(event_frame(BusMsgType::kPublish, e));
  EXPECT_EQ(back.type, BusMsgType::kPublish);
  ASSERT_TRUE(back.event.has_value());
  EXPECT_EQ(*back.event, e);
  EXPECT_EQ(back.event->publisher_seq(), 9u);
  EXPECT_TRUE(back.matched.empty());
}

TEST(BusMessage, DeliverCarriesMatchedIds) {
  Event e("t");
  const std::uint64_t matched[] = {3, 1, 0xFEDCBA9876543210ULL};
  BusMessage back =
      BusMessage::decode(event_frame(BusMsgType::kEvent, e, matched));
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(ids_of(back.matched),
            (std::vector<std::uint64_t>{3, 1, 0xFEDCBA9876543210ULL}));
  EXPECT_EQ(back.matched.size(), 3u);
  EXPECT_EQ(*back.event, e);
}

TEST(BusMessage, EventHeaderPlusBodyMatchesDeliverEncoding) {
  // The encode-once fan-out sends header ++ shared body: the header is
  // the type byte, for kEvent the u16 id count and the u64 ids.
  Event e("vitals.heartrate", {{"hr", 72}, {"unit", "bpm"}});
  e.set_publisher(ServiceId(5));
  e.set_publisher_seq(9);
  const Bytes body = encode_event(e);
  const std::vector<std::uint64_t> matched{4, 2};

  Bytes framed = event_frame(BusMsgType::kEvent, e, matched);
  Bytes deliver{0x02,                    // type
                0x00, 0x02,              // id count
                0, 0, 0, 0, 0, 0, 0, 4,  // ids
                0, 0, 0, 0, 0, 0, 0, 2};
  deliver.insert(deliver.end(), body.begin(), body.end());
  EXPECT_EQ(framed, deliver);
  BusMessage back = BusMessage::decode(framed);
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(ids_of(back.matched), matched);
  EXPECT_EQ(*back.event, e);

  Bytes publish{0x01};
  publish.insert(publish.end(), body.begin(), body.end());
  EXPECT_EQ(event_frame(BusMsgType::kPublish, e), publish);
}

TEST(BusMessage, EventIdCountPastTheMessageIsRejected) {
  Event e("t", {{"n", 1}});
  const std::uint64_t matched[] = {7};
  Bytes wire = event_frame(BusMsgType::kEvent, e, matched);
  // Every cut inside the header, and a count naming more ids than the
  // whole message holds.
  for (std::size_t len = 1; len < 1 + 2 + 8; ++len) {
    EXPECT_THROW((void)BusMessage::decode(BytesView(wire.data(), len)),
                 DecodeError)
        << len;
  }
  wire[1] = 0xFF;
  wire[2] = 0xFF;
  EXPECT_THROW((void)BusMessage::decode(wire), DecodeError);
  Bytes ids_only{0x02, 0x00, 0x02, 0, 0, 0, 0, 0, 0, 0, 7};
  EXPECT_THROW((void)BusMessage::decode(ids_only), DecodeError);
}

TEST(BusMessage, EncodeRefusesEventTypes) {
  // write_event_header() is the one encoder of event frames.
  for (BusMsgType type : {BusMsgType::kPublish, BusMsgType::kEvent}) {
    BusMessage m;
    m.type = type;
    m.event = Event("t");
    EXPECT_THROW((void)m.encode(), std::logic_error);
  }
}

TEST(BusMessage, SubscribeRoundTrip) {
  Filter f;
  f.where("type", Op::kPrefix, "alarm.").where("level", Op::kEq, "high");
  Bytes wire = BusMessage::encode_subscribe(42, f);
  EXPECT_EQ(wire.size(), 1 + 8 + f.encoded_size());
  BusMessage back = BusMessage::decode(wire);
  EXPECT_EQ(back.type, BusMsgType::kSubscribe);
  EXPECT_EQ(back.sub_id, 42u);
  ASSERT_TRUE(back.filter.has_value());
  EXPECT_EQ(*back.filter, f);
  // A decoded kSubscribe re-encodes through the same encoder.
  EXPECT_EQ(back.encode(), wire);
}

TEST(BusMessage, SubscribeWireBytes) {
  Bytes wire = BusMessage::encode_subscribe(0x0102, Filter::for_type("a"));
  const Bytes want{
      3,                       // kSubscribe
      0, 0, 0, 0, 0, 0, 1, 2,  // local id
      0, 1,                    // one constraint
      0, 4, 't', 'y', 'p', 'e',
      static_cast<std::uint8_t>(Op::kEq),
      static_cast<std::uint8_t>(ValueType::kString), 0, 1, 'a'};
  EXPECT_EQ(wire, want);
}

TEST(BusMessage, ForgedConstraintCountThrows) {
  // A kSubscribe whose filter claims 65,535 constraints over a 20-byte
  // body: three smallest constraints, then three stray bytes.
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
  EXPECT_THROW((void)BusMessage::decode(w.bytes()), DecodeError);
}

TEST(BusMessage, UnsubscribeRoundTrip) {
  BusMessage back = BusMessage::decode(BusMessage::unsubscribe(17).encode());
  EXPECT_EQ(back.type, BusMsgType::kUnsubscribe);
  EXPECT_EQ(back.sub_id, 17u);
}

TEST(BusMessage, DecodeRejectsRetiredQuenchType) {
  // Type 5 was the whole-table quench push; quench tables now ride the
  // versioned kInterestUpdate stream, so a type-5 frame is malformed —
  // with or without a body.
  Bytes bare{5};
  EXPECT_THROW((void)BusMessage::decode(bare), DecodeError);
  Writer w;
  w.u8(5);
  w.u16(1);
  Filter::for_type("a").encode(w);
  EXPECT_THROW((void)BusMessage::decode(std::move(w).take()), DecodeError);
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
  Bytes wire = BusMessage::encode_subscribe(1, Filter::for_type("a"));
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
  const std::uint64_t matched[] = {3, 1};
  EXPECT_EQ(event_frame(BusMsgType::kPublish, e), publish);
  EXPECT_EQ(event_frame(BusMsgType::kEvent, e, matched), deliver);
  EXPECT_EQ(ids_of(BusMessage::decode(deliver).matched),
            (std::vector<std::uint64_t>{3, 1}));
}

// ---- The state-stream frames (bus/state_stream.hpp). Incremental and full
// frames of both streams keep the bytes each stream's own codec gave them;
// a full kReplUpdate also keeps them but for its type byte, which was the
// retired snapshot type 9.

Digest256 golden_digest() {
  Digest256 digest;
  for (std::size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<std::uint8_t>(0xA0 + i % 16);
  }
  return digest;
}

/// `head` (type, flags, version) ++ golden_digest() ++ `tail` (the body).
Bytes stream_frame(Bytes head, const Bytes& tail) {
  const Digest256 digest = golden_digest();
  head.insert(head.end(), digest.begin(), digest.end());
  return concat(std::move(head), tail);
}

TEST(StateStreamCodec, FramesAreByteIdenticalToGolden) {
  const Digest256 digest = golden_digest();

  InterestUpdate full;
  full.version = 7;
  full.full = true;
  full.digest = digest;
  full.added = {Filter::for_type("a")};
  EXPECT_EQ(BusMessage::interest_update(full).encode(),
            stream_frame({0x07, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x07},
                         {0x00, 0x01, 0x00, 0x01, 0x00, 0x04, 0x74, 0x79,
                          0x70, 0x65, 0x01, 0x04, 0x00, 0x01, 0x61, 0x00,
                          0x00}));

  InterestUpdate inc;
  inc.version = 8;
  inc.digest = digest;
  inc.added = {Filter::for_type_prefix("b.")};
  inc.removed = {Filter::for_type("a")};
  EXPECT_EQ(BusMessage::interest_update(inc).encode(),
            stream_frame({0x07, 0x00, 0, 0, 0, 0, 0, 0, 0, 0x08},
                         {0x00, 0x01, 0x00, 0x01, 0x00, 0x04, 0x74, 0x79,
                          0x70, 0x65, 0x07, 0x04, 0x00, 0x02, 0x62, 0x2e,
                          0x00, 0x01, 0x00, 0x01, 0x00, 0x04, 0x74, 0x79,
                          0x70, 0x65, 0x01, 0x04, 0x00, 0x01, 0x61}));

  ReplUpdate repl_inc;
  repl_inc.version = 9;
  repl_inc.epoch = 3;
  repl_inc.digest = digest;
  repl_inc.ops = {0x01, 0x02, 0x03};
  EXPECT_EQ(BusMessage::repl_update(repl_inc).encode(),
            stream_frame({0x08, 0x00, 0, 0, 0, 0, 0, 0, 0, 0x09},
                         {0, 0, 0, 0, 0, 0, 0, 0x03, 0x00, 0x00, 0x00, 0x03,
                          0x01, 0x02, 0x03}));

  ReplUpdate repl_full;
  repl_full.version = 9;
  repl_full.epoch = 3;
  repl_full.full = true;
  repl_full.digest = digest;
  repl_full.ops = {0x04, 0x05};
  EXPECT_EQ(BusMessage::repl_update(repl_full).encode(),
            stream_frame({0x08, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x09},
                         {0, 0, 0, 0, 0, 0, 0, 0x03, 0x00, 0x00, 0x00, 0x02,
                          0x04, 0x05}));
}

TEST(FederationOriginCodec, StampedFramesRoundTrip) {
  Event e = golden_event();
  const Origin origin{ServiceId(0x0A0000020002ULL), 3, 0x0102030405060708ULL};
  e.set_origin(origin);

  // The stamp rides the header, 22 B (u48 cell, u64 epoch, u64 seq),
  // behind the type byte's flag bit; the body is the same shared encoding.
  const Bytes stamp{0x0a, 0x00, 0x00, 0x02, 0x00, 0x02,  // cell
                    0, 0, 0, 0, 0, 0, 0, 3,              // epoch
                    1, 2, 3, 4, 5, 6, 7, 8};             // seq
  EXPECT_EQ(stamp.size(), Origin::kWireSize);
  Bytes publish = event_frame(BusMsgType::kPublish, e);
  EXPECT_EQ(publish, concat(concat({0x81}, stamp), kGoldenBody));
  BusMessage back = BusMessage::decode(publish);
  EXPECT_EQ(back.type, BusMsgType::kPublish);
  EXPECT_EQ(back.event->origin(), origin);
  EXPECT_EQ(*back.event, e);

  const std::uint64_t matched[] = {3, 1};
  Bytes deliver = event_frame(BusMsgType::kEvent, e, matched);
  EXPECT_EQ(deliver,
            concat(concat({0x82, 0x00, 0x02, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
                           0, 0, 0, 0, 1},
                          stamp),
                   kGoldenBody));
  back = BusMessage::decode(deliver);
  EXPECT_EQ(back.type, BusMsgType::kEvent);
  EXPECT_EQ(ids_of(back.matched), (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(back.event->origin(), origin);
  EXPECT_EQ(*back.event, e);

  // The stamp is metadata, not content: no attribute carries it.
  EXPECT_EQ(back.event->size(), e.size());
  EXPECT_EQ(encode_event(*back.event), kGoldenBody);
}

TEST(FederationOriginCodec, FlagRejectedOnEveryOtherType) {
  std::vector<Bytes> frames{
      BusMessage::encode_subscribe(1, Filter::for_type("a")),
      BusMessage::unsubscribe(1).encode(),
      BusMessage::interest_update(InterestUpdate{}).encode(),
      BusMessage::flow_control(true).encode(),
      BusMessage::resync_request(BusMsgType::kInterestUpdate).encode(),
      BusMessage::resync_request(BusMsgType::kReplUpdate).encode(),
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
  Bytes wire = event_frame(BusMsgType::kPublish, e);
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
