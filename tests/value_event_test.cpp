// Tests for the typed value model and event attribute sets.
#include <gtest/gtest.h>

#include "pubsub/codec.hpp"
#include "pubsub/event.hpp"

namespace amuse {
namespace {

TEST(Value, TypeTags) {
  EXPECT_EQ(Value(std::int64_t{4}).type(), ValueType::kInt);
  EXPECT_EQ(Value(4).type(), ValueType::kInt);
  EXPECT_EQ(Value(4.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value("s").type(), ValueType::kString);
  EXPECT_EQ(Value(Bytes{1}).type(), ValueType::kBytes);
}

TEST(Value, NumericFamilyEquality) {
  EXPECT_TRUE(Value(3).equals(Value(3.0)));
  EXPECT_TRUE(Value(3.0).equals(Value(3)));
  EXPECT_FALSE(Value(3).equals(Value(3.5)));
  EXPECT_FALSE(Value(3).equals(Value("3")));
  EXPECT_FALSE(Value(1).equals(Value(true)));  // bool is not numeric
}

TEST(Value, CompareOrdersWithinFamilies) {
  EXPECT_LT(Value(1).compare(Value(2)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
  EXPECT_EQ(Value(2).compare(Value(2.0)), 0);
  EXPECT_LT(Value("abc").compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").compare(Value("x")), 0);
  EXPECT_LT(Value(false).compare(Value(true)), 0);
  EXPECT_LT(Value(Bytes{1, 2}).compare(Value(Bytes{1, 3})), 0);
}

TEST(Value, CrossTypeCompareIsStable) {
  // Arbitrary but total: ordered by type tag.
  EXPECT_NE(Value(1).compare(Value("1")), 0);
  EXPECT_EQ(Value(1).compare(Value("1")), -Value("1").compare(Value(1)));
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(Value(42).to_string(), "int:42");
  EXPECT_EQ(Value(true).to_string(), "bool:true");
  EXPECT_EQ(Value("hi").to_string(), "str:\"hi\"");
  EXPECT_EQ(Value(Bytes{0xAB}).to_string(), "bytes:1:ab");
}

TEST(Value, EncodeDecodeRoundTrip) {
  std::vector<Value> values = {
      Value(std::int64_t{-123456789}), Value(0),     Value(3.14159),
      Value(-0.0),                     Value(true),  Value(false),
      Value(""),                       Value("text with spaces"),
      Value(Bytes{}),                  Value(Bytes{0, 255, 127}),
  };
  Writer w;
  for (const Value& v : values) v.encode(w);
  Reader r(w.bytes());
  for (const Value& v : values) {
    Value got = Value::decode(r);
    EXPECT_EQ(got.type(), v.type());
    EXPECT_TRUE(got.equals(v)) << v.to_string();
  }
  EXPECT_TRUE(r.done());
}

TEST(Value, DecodeRejectsBadTag) {
  Bytes junk{99, 0, 0};
  Reader r(junk);
  EXPECT_THROW((void)Value::decode(r), DecodeError);
}

TEST(Event, TypeConstructorSetsTypeAttribute) {
  Event e("vitals.heartrate", {{"hr", 72}});
  EXPECT_EQ(e.type(), "vitals.heartrate");
  EXPECT_EQ(e.get_int("hr"), 72);
  EXPECT_EQ(e.size(), 2u);
}

TEST(Event, TypedGettersWithFallbacks) {
  Event e("t");
  e.set("i", 7).set("d", 2.5).set("s", "str").set("b", true);
  EXPECT_EQ(e.get_int("i"), 7);
  EXPECT_EQ(e.get_int("missing", -1), -1);
  EXPECT_EQ(e.get_int("d", -1), -1);  // wrong type → fallback
  EXPECT_DOUBLE_EQ(e.get_double("d"), 2.5);
  EXPECT_DOUBLE_EQ(e.get_double("i"), 7.0);  // int promotes
  EXPECT_EQ(e.get_string("s"), "str");
  EXPECT_EQ(e.get_string("i", "fb"), "fb");
  EXPECT_TRUE(e.has("b"));
  EXPECT_FALSE(e.has("nope"));
  EXPECT_FALSE(e.get("nope").has_value());
}

TEST(Event, SetReplacesValue) {
  Event e("t");
  e.set("x", 1);
  e.set("x", 2);
  EXPECT_EQ(e.get_int("x"), 2);
  EXPECT_EQ(e.size(), 2u);  // type + x
}

TEST(Event, EqualityIsStructural) {
  Event a("t", {{"x", 1}});
  Event b("t", {{"x", 1}});
  Event c("t", {{"x", 2}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  b.set("y", 0);
  EXPECT_FALSE(a == b);
}

TEST(Event, MetadataRoundTripsThroughCodec) {
  Event e("alarm.cardiac", {{"hr", 190}, {"level", "high"}});
  e.set_publisher(ServiceId(0xABCDEF));
  e.set_publisher_seq(42);
  e.set_timestamp(TimePoint(milliseconds(1500)));

  Event back = decode_event(encode_event(e));
  EXPECT_EQ(back, e);
  EXPECT_EQ(back.publisher(), ServiceId(0xABCDEF));
  EXPECT_EQ(back.publisher_seq(), 42u);
  EXPECT_EQ(back.timestamp(), TimePoint(milliseconds(1500)));
}

TEST(Event, CodecRejectsTrailingBytes) {
  Bytes b = encode_event(Event("t"));
  b.push_back(0);
  EXPECT_THROW((void)decode_event(b), DecodeError);
}

TEST(Event, PayloadSizeTracksContent) {
  Event small("t");
  Event big("t");
  big.set("blob", Bytes(1000, 0x55));
  EXPECT_GT(big.payload_size(), small.payload_size() + 999);
}

TEST(Event, ToStringListsAttributes) {
  Event e("t", {{"a", 1}});
  std::string s = e.to_string();
  EXPECT_NE(s.find("a=int:1"), std::string::npos);
  EXPECT_NE(s.find("type=str:\"t\""), std::string::npos);
}

// ---- Attribute storage: one vector kept sorted by name, map semantics.

// Event body header (publisher, seq, timestamp) and attribute count, as
// Event::encode writes them; attributes follow.
Writer body_header(std::uint16_t count) {
  Writer w;
  w.u48(0xABCDEF);
  w.u64(9);
  w.i64(1000);
  w.u16(count);
  return w;
}

TEST(Event, SetKeepsAttributesSortedByName) {
  Event e("t");
  e.set("m", 1).set("b", 2).set("z", 3).set("a", 4).set("m", 5);
  std::vector<std::string> names;
  for (const auto& [name, value] : e.attributes()) names.emplace_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "m", "type", "z"}));
  EXPECT_EQ(e.get_int("m"), 5);
  EXPECT_EQ(e.get_int("a"), 4);
}

TEST(Event, ConstructorKeepsFirstDuplicateAndTypeWins) {
  Event e("t", {{"x", 1}, {"x", 2}, {"type", "other"}});
  EXPECT_EQ(e.get_int("x"), 1);
  EXPECT_EQ(e.type(), "t");
  EXPECT_EQ(e.size(), 2u);
}

TEST(Event, DecodeIndexesACanonicalBodyInPlace) {
  Event e("vitals.heartrate", {{"hr", 80}, {"patient", "P07"}});
  SharedBytes wire(encode_event(e));
  Event d = decode_event(wire);
  // No copy: the event views the received bytes.
  EXPECT_EQ(d.body().data(), wire.data());
  EXPECT_EQ(d, e);
  const auto* text =
      reinterpret_cast<const std::uint8_t*>(d.get("patient")->as_string().data());
  EXPECT_GE(text, wire.data());
  EXPECT_LT(text, wire.data() + wire.size());
}

TEST(Event, SetOnASharedBufferCopiesFirst) {
  Event a("t", {{"x", 1}});
  Event b = a;
  EXPECT_EQ(a.body().data(), b.body().data());  // a copy shares the bytes
  b.set("x", 2).set("y", "new");
  b.set_publisher(ServiceId(9));
  EXPECT_EQ(a.get_int("x"), 1);
  EXPECT_FALSE(a.has("y"));
  EXPECT_EQ(a.publisher(), ServiceId());
  EXPECT_EQ(b.get_int("x"), 2);
  EXPECT_EQ(b.get_string("y"), "new");
  EXPECT_EQ(b.publisher(), ServiceId(9));
  EXPECT_EQ(decode_event(encode_event(b)), b);
}

TEST(Event, DecodeSortsUnorderedNamesAndLastDuplicateWins) {
  Writer w = body_header(5);
  w.str("type");
  Value(std::string("vitals.heartrate")).encode(w);
  w.str("hr");
  Value(std::int64_t{80}).encode(w);
  w.str("bed");
  Value(std::string("b-12")).encode(w);
  w.str("hr");
  Value(std::int64_t{95}).encode(w);
  w.str("spo2");
  Value(97.5).encode(w);

  Event e = decode_event(w.bytes());
  std::vector<std::string> names;
  for (const auto& [name, value] : e.attributes()) names.emplace_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"bed", "hr", "spo2", "type"}));
  EXPECT_EQ(e.get_int("hr"), 95);
  EXPECT_EQ(e.get_string("bed"), "b-12");
  EXPECT_EQ(e.type(), "vitals.heartrate");
  EXPECT_EQ(e.publisher(), ServiceId(0xABCDEF));
  EXPECT_EQ(e.publisher_seq(), 9u);
}

TEST(Event, ReencodingADecodedBodyIsCanonical) {
  // The same attributes written in two orders, one with a stale duplicate:
  // both decode to one event whose encoding is sorted and duplicate-free,
  // and that encoding is a fixed point.
  Writer scrambled = body_header(4);
  scrambled.str("z");
  Value(std::int64_t{1}).encode(scrambled);
  scrambled.str("a");
  Value(std::string("stale")).encode(scrambled);
  scrambled.str("m");
  Value(true).encode(scrambled);
  scrambled.str("a");
  Value(std::string("fresh")).encode(scrambled);

  Writer sorted = body_header(3);
  sorted.str("a");
  Value(std::string("fresh")).encode(sorted);
  sorted.str("m");
  Value(true).encode(sorted);
  sorted.str("z");
  Value(std::int64_t{1}).encode(sorted);

  Bytes canonical = encode_event(decode_event(scrambled.bytes()));
  EXPECT_EQ(canonical, sorted.bytes());
  EXPECT_EQ(encode_event(decode_event(canonical)), canonical);
}

TEST(Event, DecodeRejectsAForgedAttributeCount) {
  // Count 65535 followed by 10 bytes: two well-formed attributes (empty
  // name, bool) and a dangling name. The reserve is capped by what the body
  // could hold, and decoding runs out of bytes on the third attribute.
  Writer w = body_header(0xFFFF);
  for (int i = 0; i < 2; ++i) {
    w.str("");
    Value(true).encode(w);
  }
  w.str("");
  ASSERT_EQ(w.size(), 6u + 8u + 8u + 2u + 10u);
  EXPECT_THROW((void)decode_event(w.bytes()), DecodeError);
}

}  // namespace
}  // namespace amuse
