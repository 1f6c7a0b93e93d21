// Seed-corpus generator for the fuzz harnesses. Deterministic: running it
// twice produces byte-identical files, so the checked-in corpus under
// fuzz/corpus/ can be regenerated and diffed at any time:
//
//     ./build-fuzz/fuzz/amuse_make_corpus [output-root]   # default: fuzz/corpus
//
// The packet corpus seeds Packet::decode with the frame shapes the wire
// actually carries — plain/batched/fragmented DATA (including an event
// payload assembled the SharedPayload way: header ++ shared body), ACKs,
// every discovery frame — plus near-miss malformed frames (bad batch
// tiling, truncations, CRC damage) that exercise the rejection paths. The
// codec corpus seeds decode_event/decode_filter through the harness's
// steering byte. The matcher corpus scripts add/remove/match sequences over
// ward-shaped filters (shared type, patient keys, bed prefixes of several
// lengths, thresholds, int/double and NaN values) for the differential
// matcher harness, and run every operator against every value type as the
// constant and as the event value (tests/constraint_cases.hpp), alone and
// behind a key. The task-queue corpus scripts schedule/cancel/step
// sequences: same-instant ties, slot recycling under stale cancels, and
// tasks that cancel others or schedule from their destructors. libFuzzer
// treats these as the starting population; the
// gcc standalone driver replays them verbatim under ASan/UBSan in CI.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "bus/messages.hpp"
#include "constraint_cases.hpp"
#include "event_frame.hpp"
#include "common/bytes.hpp"
#include "pubsub/codec.hpp"
#include "wire/packet.hpp"

namespace {

using namespace amuse;

void write_file(const std::filesystem::path& dir, const std::string& name,
                BytesView bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("%s/%s: %zu bytes\n", dir.string().c_str(), name.c_str(),
              bytes.size());
}

Packet data_frame(std::uint32_t seq, std::uint16_t flags, Bytes payload) {
  Packet p;
  p.type = PacketType::kData;
  p.session = 0x5EED0001;
  p.src = ServiceId::from_addr_port(0x0A000001, 40001);
  p.dst = ServiceId::from_addr_port(0x0A000002, 40002);
  p.seq = seq;
  p.flags = flags;
  p.payload = std::move(payload);
  return p;
}

Bytes batch_payload(const std::vector<Bytes>& subs) {
  Writer w;
  for (const Bytes& sub : subs) {
    w.u16(static_cast<std::uint16_t>(sub.size()));
    w.raw(BytesView(sub.data(), sub.size()));
  }
  return std::move(w).take();
}

Event sample_event() {
  Event e("vitals.heartrate", {{"hr", 142}, {"patient", "bed-7"}});
  e.set_publisher(ServiceId::from_addr_port(0x0A000003, 40003));
  return e;
}

void packet_corpus(const std::filesystem::path& dir) {
  // Plain single-message DATA frame.
  write_file(dir, "data_plain.bin",
             data_frame(3, 0, to_bytes("hello bus")).encode());
  // Empty-payload DATA (a valid zero-length message).
  write_file(dir, "data_empty.bin", data_frame(0, 0, Bytes{}).encode());
  // Cumulative ACK.
  {
    Packet a;
    a.type = PacketType::kAck;
    a.session = 0x5EED0001;
    a.src = ServiceId::from_addr_port(0x0A000002, 40002);
    a.dst = ServiceId::from_addr_port(0x0A000001, 40001);
    a.ack = 17;
    write_file(dir, "ack.bin", a.encode());
  }
  // Batched DATA: three well-tiled sub-messages.
  write_file(dir, "data_batched.bin",
             data_frame(5, kFlagBatched,
                        batch_payload({to_bytes("alpha"), to_bytes("beta"),
                                       to_bytes("gamma")}))
                 .encode());
  // Batched DATA whose payload does NOT tile (length prefix overruns):
  // well-formed at the frame layer, rejected at the batch-split layer.
  {
    Bytes bad = batch_payload({to_bytes("alpha")});
    bad[0] = 0xFF;  // sub-length now far beyond the payload
    write_file(dir, "data_batched_bad_tiling.bin",
               data_frame(5, kFlagBatched, std::move(bad)).encode());
  }
  // Fragmented DATA: a non-final fragment and the final one.
  write_file(
      dir, "data_fragment_more.bin",
      data_frame(8, kFlagMoreFragments, to_bytes("fragment-one|")).encode());
  write_file(dir, "data_fragment_final.bin",
             data_frame(9, 0, to_bytes("fragment-two")).encode());
  // An event delivery assembled the SharedPayload way: per-member header
  // plus the encode-once shared event body (what ForwardingProxy sends).
  {
    const std::uint64_t matched[] = {4, 9};
    write_file(dir, "data_event_shared_payload.bin",
               data_frame(2, 0,
                          event_frame(BusMsgType::kEvent, sample_event(),
                                      matched))
                   .encode());
  }
  // A kPublish message as a member's client would send it.
  write_file(dir, "data_publish.bin",
             data_frame(1, 0, event_frame(BusMsgType::kPublish, sample_event()))
                 .encode());
  // Discovery protocol frames, including the JoinAccept with the reserved
  // proxy-channel session (the newest wire field).
  {
    Packet b;
    b.type = PacketType::kBeacon;
    b.src = ServiceId::from_addr_port(0x0A000001, 40000);
    b.dst = ServiceId{};
    Writer w;
    w.str("patient-cell");
    w.u48(ServiceId::from_addr_port(0x0A000001, 40001).raw());
    b.payload = std::move(w).take();
    write_file(dir, "disc_beacon.bin", b.encode());
  }
  {
    Packet j;
    j.type = PacketType::kJoinAccept;
    j.src = ServiceId::from_addr_port(0x0A000001, 40000);
    j.dst = ServiceId::from_addr_port(0x0A000002, 40002);
    Writer w;
    w.u64(400);       // heartbeat interval
    w.u64(6000);      // purge_after
    w.u48(ServiceId::from_addr_port(0x0A000001, 40001).raw());
    w.u32(0x5EED0002);  // reserved proxy-channel session
    j.payload = std::move(w).take();
    write_file(dir, "disc_join_accept.bin", j.encode());
  }
  {
    Packet c;
    c.type = PacketType::kJoinChallenge;
    c.src = ServiceId::from_addr_port(0x0A000001, 40000);
    c.dst = ServiceId::from_addr_port(0x0A000002, 40002);
    Writer w;
    w.blob16(to_bytes("sixteen-byte-nonce"));
    c.payload = std::move(w).take();
    write_file(dir, "disc_join_challenge.bin", c.encode());
  }
  // Truncated frame: a valid encoding cut mid-payload.
  {
    Bytes whole = data_frame(3, 0, to_bytes("truncate me please")).encode();
    whole.resize(whole.size() - 7);
    write_file(dir, "data_truncated.bin", whole);
  }
  // CRC damage: flip one payload byte after encoding.
  {
    Bytes whole = data_frame(4, 0, to_bytes("crc goes stale")).encode();
    whole[whole.size() - 3] ^= 0x40;
    write_file(dir, "data_bad_crc.bin", whole);
  }
}

void codec_corpus(const std::filesystem::path& dir) {
  // The harness's first byte steers the decoder: even → event, odd → filter.
  auto steered = [](std::uint8_t steer, const Bytes& body) {
    Bytes out;
    out.push_back(steer);
    out.insert(out.end(), body.begin(), body.end());
    return out;
  };
  write_file(dir, "event_simple.bin",
             steered(0, encode_event(sample_event())));
  {
    Event e("sensor.mixed", {});
    e.set("i", Value(std::int64_t{-42}));
    e.set("d", Value(3.25));
    e.set("b", Value(true));
    e.set("s", Value(std::string("text")));
    e.set("raw", Value(Bytes{0x00, 0x01, 0x02, 0xFF}));
    write_file(dir, "event_all_value_types.bin", steered(0, encode_event(e)));
  }
  write_file(dir, "event_no_attrs.bin",
             steered(0, encode_event(Event("bare"))));
  {
    Event e("bulk");
    e.set("data", Value(Bytes(600, std::uint8_t{0xAB})));
    write_file(dir, "event_bulk_bytes.bin", steered(0, encode_event(e)));
  }
  {
    Event e("unicode", {{"name", "Grüße-患者-🚑"}});
    write_file(dir, "event_unicode.bin", steered(0, encode_event(e)));
  }
  {
    Bytes whole = encode_event(sample_event());
    whole.resize(whole.size() / 2);
    write_file(dir, "event_truncated.bin", steered(0, whole));
  }
  {
    // A hand-built body no encoder writes: names out of order and one
    // duplicated. Decode must sort them and keep the last "hr".
    Writer w;
    w.u48(ServiceId::from_addr_port(0x0A000003, 40003).raw());
    w.u64(7);
    w.i64(1000);
    w.u16(4);
    w.str("type");
    Value(std::string("vitals.heartrate")).encode(w);
    w.str("hr");
    Value(std::int64_t{80}).encode(w);
    w.str("bed");
    Value(std::string("b-12")).encode(w);
    w.str("hr");
    Value(std::int64_t{95}).encode(w);
    write_file(dir, "event_unordered_duplicate.bin",
               steered(0, std::move(w).take()));
  }
  // The three ways a body can fail to be canonical, one each: the bus
  // re-serialises such a body instead of forwarding it as received.
  auto body = [](std::uint16_t n) {
    Writer w;
    w.u48(ServiceId::from_addr_port(0x0A000003, 40003).raw());
    w.u64(8);
    w.i64(2000);
    w.u16(n);
    return w;
  };
  {
    Writer w = body(2);
    w.str("type");
    Value(std::string("vitals.spo2")).encode(w);
    w.str("spo2");
    Value(std::int64_t{97}).encode(w);
    write_file(dir, "event_names_out_of_order.bin",
               steered(0, std::move(w).take()));
  }
  {
    Writer w = body(3);
    w.str("spo2");
    Value(std::int64_t{91}).encode(w);
    w.str("spo2");
    Value(std::int64_t{97}).encode(w);
    w.str("type");
    Value(std::string("vitals.spo2")).encode(w);
    write_file(dir, "event_duplicate_names.bin",
               steered(0, std::move(w).take()));
  }
  {
    Writer w = body(2);
    w.str("alarm");
    w.u8(static_cast<std::uint8_t>(ValueType::kBool));
    w.u8(0x02);
    w.str("type");
    Value(std::string("alarm.cardiac")).encode(w);
    write_file(dir, "event_bool_byte_two.bin",
               steered(0, std::move(w).take()));
  }
  write_file(dir, "filter_for_type.bin",
             steered(1, encode_filter(Filter::for_type("vitals.heartrate"))));
  write_file(
      dir, "filter_type_prefix.bin",
      steered(1, encode_filter(Filter::for_type_prefix("smc.member."))));
  {
    Filter f = Filter::for_type("vitals.heartrate");
    f.where("hr", Op::kGt, Value(std::int64_t{150}))
        .where("patient", Op::kPrefix, Value(std::string("bed-")))
        .where("flag", Op::kExists);
    write_file(dir, "filter_multi_constraint.bin",
               steered(1, encode_filter(f)));
  }
  {
    Filter f;
    f.where("level", Op::kNe, Value(std::string("ok")))
        .where("joules", Op::kLe, Value(200.0));
    write_file(dir, "filter_numeric_string_ops.bin",
               steered(1, encode_filter(f)));
  }
  {
    Bytes whole = encode_filter(Filter::for_type("truncated"));
    whole.resize(whole.size() - 3);
    write_file(dir, "filter_truncated.bin", steered(1, whole));
  }
  {
    // A bad value-type tag deep inside an otherwise valid filter.
    Filter f = Filter::for_type("x");
    Bytes whole = encode_filter(f);
    whole[whole.size() - 1] = 0x77;  // last byte sits inside the constraint
    write_file(dir, "filter_bad_value_tag.bin", steered(1, whole));
  }
}

/// A script for fuzz_matcher: records `u8 op, blob16 body`, where op is
/// `id << 2 | action` (0 add, 2 remove, 3 match).
class MatcherScript {
 public:
  MatcherScript& add(std::uint8_t id, const Filter& f) {
    w_.u8(static_cast<std::uint8_t>(id << 2));
    w_.blob16(encode_filter(f));
    return *this;
  }
  MatcherScript& remove(std::uint8_t id) {
    w_.u8(static_cast<std::uint8_t>(id << 2 | 2));
    w_.blob16(Bytes{});
    return *this;
  }
  MatcherScript& match(const Event& e) {
    w_.u8(3);
    w_.blob16(encode_event(e));
    return *this;
  }
  Bytes take() && { return std::move(w_).take(); }

 private:
  Writer w_;
};

Filter threshold(const char* patient, const char* attr, Op op, Value bound) {
  return Filter::for_type("obs.vitals")
      .where("patient", Op::kEq, Value(std::string(patient)))
      .where(attr, op, std::move(bound));
}

Event observation(const char* patient, const char* bed, Value hr) {
  return Event("obs.vitals", {{"patient", Value(std::string(patient))},
                              {"bed", Value(std::string(bed))},
                              {"hr", std::move(hr)},
                              {"spo2", Value(std::int64_t{91})}});
}

void matcher_corpus(const std::filesystem::path& dir) {
  {
    // A ward: every filter shares the type; patients, bed prefixes of
    // several lengths and thresholds select.
    MatcherScript s;
    s.add(1, Filter::for_type("obs.vitals"))
        .add(2, threshold("P0001", "hr", Op::kGt, Value(std::int64_t{120})))
        .add(3, threshold("P0001", "spo2", Op::kLt, Value(std::int64_t{92})))
        .add(4, threshold("P0002", "hr", Op::kGt, Value(std::int64_t{100})))
        .add(5, Filter::for_type("obs.vitals")
                    .where("bed", Op::kPrefix, Value(std::string("W01-")))
                    .where("hr", Op::kGt, Value(std::int64_t{140})))
        .add(6, Filter().where("bed", Op::kPrefix, Value(std::string("W0"))))
        .add(7, Filter()
                    .where("patient", Op::kEq, Value(std::string("P0002")))
                    .where("type", Op::kEq, Value(std::string("obs.vitals"))))
        .match(observation("P0001", "W01-B0001", Value(std::int64_t{150})))
        .match(observation("P0002", "W02-B0002", Value(std::int64_t{101})))
        .add(2, threshold("P0001", "hr", Op::kGt, Value(std::int64_t{90})))
        .remove(3)
        .match(observation("P0001", "W01-B0001", Value(std::int64_t{95})));
    write_file(dir, "ward_thresholds.bin", std::move(s).take());
  }
  {
    // Cross-type equality, NaN bounds and values, ranges/!=/exists only.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    MatcherScript s;
    s.add(1, Filter().where("unit", Op::kEq, Value(std::int64_t{3})))
        .add(2, Filter().where("unit", Op::kEq, Value(3.0)))
        .add(3, Filter().where("hr", Op::kLe, Value(nan)))
        .add(4, Filter().where("hr", Op::kEq, Value(nan)))
        .add(5, Filter().where("hr", Op::kGe, Value(60.5))
                    .where("hr", Op::kLt, Value(std::int64_t{100})))
        .add(6, Filter().where("unit", Op::kNe, Value(std::int64_t{4})))
        .add(7, Filter().where("resp", Op::kExists))
        .add(8, Filter())
        .match(Event("obs.vitals", {{"unit", Value(3.0)}, {"hr", Value(nan)}}))
        .match(Event("obs.vitals", {{"unit", Value(std::int64_t{3})},
                                    {"hr", Value(std::int64_t{72})},
                                    {"resp", Value(std::int64_t{14})}}))
        .remove(8)
        .remove(5)
        .match(Event("obs.vitals", {{"hr", Value(-0.0)}}));
    write_file(dir, "cross_type_nan.bin", std::move(s).take());
  }
  {
    // Churn on colliding ids: the same id moves between index kinds.
    MatcherScript s;
    for (std::uint8_t round = 0; round < 4; ++round) {
      s.add(9, Filter::for_type("alarm.cardiac"))
          .add(9, Filter::for_type_prefix("alarm."))
          .add(9, Filter().where("level", Op::kSuffix,
                                 Value(std::string("high"))))
          .match(Event("alarm.cardiac",
                       {{"level", Value(std::string("high"))}}))
          .remove(9)
          .match(Event("alarm.cardiac"));
    }
    write_file(dir, "id_churn.bin", std::move(s).take());
  }
  {
    // Operator × value type: per constant, ids 0..9 hold each operator
    // alone and ids 10..19 the same behind a string key; every value is
    // then published.
    const std::vector<Value> values = cases::constraint_values();
    MatcherScript s;
    for (const Value& c : values) {
      for (std::size_t i = 0; i < cases::kOps.size(); ++i) {
        auto id = static_cast<std::uint8_t>(i);
        s.add(id, cases::alone(cases::kOps[i], c))
            .add(static_cast<std::uint8_t>(id + 10),
                 cases::behind_key(cases::kOps[i], c));
      }
      for (const Value& v : cases::event_values()) {
        s.match(cases::event_with(v));
      }
    }
    write_file(dir, "op_value_table.bin", std::move(s).take());
  }
}

/// A script for fuzz_task_queue: records `u8 op, u8 arg` (see the harness
/// for the op table).
class TaskQueueScript {
 public:
  TaskQueueScript& schedule(std::uint8_t delay_ms, std::uint8_t traits = 0) {
    return record(static_cast<std::uint8_t>(traits << 3), delay_ms);
  }
  TaskQueueScript& cancel_live(std::uint8_t pick) { return record(3, pick); }
  TaskQueueScript& cancel_stale(std::uint8_t pick) { return record(4, pick); }
  TaskQueueScript& step() { return record(5, 0); }
  TaskQueueScript& run_until(std::uint8_t delta_ms) {
    return record(7, delta_ms);
  }
  Bytes take() && { return std::move(w_).take(); }

 private:
  TaskQueueScript& record(std::uint8_t op, std::uint8_t arg) {
    w_.u8(op);
    w_.u8(arg);
    return *this;
  }
  Writer w_;
};

void task_queue_corpus(const std::filesystem::path& dir) {
  {
    // Same-instant ties interleaved with later deadlines.
    TaskQueueScript s;
    for (std::uint8_t i = 0; i < 12; ++i) s.schedule(i % 3 == 0 ? 2 : 0);
    for (int i = 0; i < 6; ++i) s.step();
    s.schedule(0).schedule(1).run_until(2).run_until(2);
    write_file(dir, "ties.bin", std::move(s).take());
  }
  {
    // Slots freed and reused while stale ids keep being cancelled.
    TaskQueueScript s;
    for (std::uint8_t round = 0; round < 8; ++round) {
      s.schedule(round % 4).schedule(1).cancel_live(round).cancel_stale(
          round).step().cancel_stale(static_cast<std::uint8_t>(round + 1));
    }
    s.run_until(2).run_until(2);
    write_file(dir, "recycle.bin", std::move(s).take());
  }
  {
    // Tasks that cancel another when they run and schedule from their
    // destructors, on both the run and the cancel path.
    TaskQueueScript s;
    for (std::uint8_t i = 0; i < 8; ++i) s.schedule(i % 2, 1).schedule(1, 2);
    s.schedule(0, 3).cancel_live(1).cancel_live(4).step().step();
    s.run_until(1).run_until(2).step();
    write_file(dir, "reentrant.bin", std::move(s).take());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  packet_corpus(root / "packet");
  codec_corpus(root / "codec");
  matcher_corpus(root / "matcher");
  task_queue_corpus(root / "task_queue");
  return 0;
}
