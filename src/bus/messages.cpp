#include "bus/messages.hpp"

#include <algorithm>
#include <stdexcept>

namespace amuse {

const char* to_string(BusMsgType t) {
  switch (t) {
    case BusMsgType::kPublish: return "PUBLISH";
    case BusMsgType::kEvent: return "EVENT";
    case BusMsgType::kSubscribe: return "SUBSCRIBE";
    case BusMsgType::kUnsubscribe: return "UNSUBSCRIBE";
    case BusMsgType::kFlowControl: return "FLOW";
    case BusMsgType::kInterestUpdate: return "INTEREST";
    case BusMsgType::kReplUpdate: return "REPL";
  }
  return "?";
}

namespace {

Origin read_origin(Reader& r) {
  Origin o = Origin::decode(r);
  if (!o.stamped()) throw DecodeError("origin stamp without a cell");
  return o;
}

std::uint8_t type_byte(BusMsgType type, const Origin& origin) {
  auto raw = static_cast<std::uint8_t>(type);
  return origin.stamped() ? static_cast<std::uint8_t>(raw | kOriginFlag) : raw;
}

// The state-stream header (bus/state_stream.hpp), shared by kInterestUpdate
// and kReplUpdate.
constexpr std::uint8_t kStreamFull = 0x01;
constexpr std::uint8_t kStreamResync = 0x02;
constexpr std::uint8_t kStreamConfirm = 0x04;

void write_stream(Writer& w, const StreamHeader& h) {
  std::uint8_t flags = 0;
  if (h.full) flags |= kStreamFull;
  if (h.request_resync) flags |= kStreamResync;
  if (h.confirm) flags |= kStreamConfirm;
  w.u8(flags);
  w.u64(h.version);
  w.raw(h.digest);
}

void read_stream(Reader& r, StreamHeader& h) {
  std::uint8_t flags = r.u8();
  if (flags > (kStreamFull | kStreamResync | kStreamConfirm) ||
      ((flags & kStreamConfirm) != 0 && flags != kStreamConfirm)) {
    throw DecodeError("bad state-stream flags " + std::to_string(flags));
  }
  h.full = (flags & kStreamFull) != 0;
  h.request_resync = (flags & kStreamResync) != 0;
  h.confirm = flags == kStreamConfirm;
  h.version = r.u64();
  BytesView digest = r.raw(h.digest.size());
  std::copy(digest.begin(), digest.end(), h.digest.begin());
}

}  // namespace

Bytes BusMessage::encode_subscribe(std::uint64_t sub_id, const Filter& f) {
  Writer w(1 + 8 + f.encoded_size());
  w.u8(static_cast<std::uint8_t>(BusMsgType::kSubscribe));
  w.u64(sub_id);
  f.encode(w);
  return std::move(w).take();
}

Bytes BusMessage::encode() const {
  if (type == BusMsgType::kSubscribe) return encode_subscribe(sub_id, *filter);
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case BusMsgType::kPublish:
    case BusMsgType::kEvent:
      throw std::logic_error(
          "BusMessage::encode: event frames are written by "
          "write_event_header()");
    case BusMsgType::kSubscribe:
      break;  // returned above
    case BusMsgType::kUnsubscribe:
      w.u64(sub_id);
      break;
    case BusMsgType::kFlowControl:
      w.u8(pressure ? 1 : 0);
      break;
    case BusMsgType::kInterestUpdate:
      write_stream(w, *interest);
      if (interest->confirm) break;
      w.u16(static_cast<std::uint16_t>(interest->added.size()));
      for (const Filter& f : interest->added) f.encode(w);
      w.u16(static_cast<std::uint16_t>(interest->removed.size()));
      for (const Filter& f : interest->removed) f.encode(w);
      break;
    case BusMsgType::kReplUpdate:
      write_stream(w, *repl);
      w.u64(repl->epoch);
      if (!repl->confirm) w.blob32(repl->ops);
      break;
  }
  return std::move(w).take();
}

BusMessage BusMessage::decode(BytesView data) {
  return decode(SharedBytes::copy_of(data));
}

BusMessage BusMessage::decode(const SharedBytes& data) {
  Reader r(data.view());
  BusMessage m;
  auto raw = r.u8();
  const bool stamped = (raw & kOriginFlag) != 0;
  raw &= static_cast<std::uint8_t>(~kOriginFlag);
  if (raw < 1 || raw > 8 || raw == 5) {
    throw DecodeError("bad bus message type " + std::to_string(raw));
  }
  m.type = static_cast<BusMsgType>(raw);
  if (stamped && m.type != BusMsgType::kPublish &&
      m.type != BusMsgType::kEvent) {
    throw DecodeError(std::string("origin flag on ") + to_string(m.type));
  }
  switch (m.type) {
    case BusMsgType::kPublish:
    case BusMsgType::kEvent: {
      if (m.type == BusMsgType::kEvent) {
        std::size_t n = r.u16();
        m.matched = MatchedIds(data.slice(r.raw(8 * n)));
      }
      Origin origin = stamped ? read_origin(r) : Origin{};
      // The body is the rest of the message: indexed in place.
      m.event = Event::decode(data.slice(r.raw(r.remaining())));
      m.event->set_origin(origin);
      break;
    }
    case BusMsgType::kSubscribe:
      m.sub_id = r.u64();
      m.filter = Filter::decode(r);
      break;
    case BusMsgType::kUnsubscribe:
      m.sub_id = r.u64();
      break;
    case BusMsgType::kFlowControl: {
      std::uint8_t state = r.u8();
      if (state > 1) {
        throw DecodeError("bad flow-control state " + std::to_string(state));
      }
      m.pressure = state == 1;
      break;
    }
    case BusMsgType::kInterestUpdate: {
      InterestUpdate& u = m.interest.emplace();
      read_stream(r, u);
      if (u.confirm) break;
      std::uint16_t n_added = r.u16();
      u.added.reserve(n_added);
      for (std::uint16_t i = 0; i < n_added; ++i) {
        u.added.push_back(Filter::decode(r));
      }
      std::uint16_t n_removed = r.u16();
      u.removed.reserve(n_removed);
      for (std::uint16_t i = 0; i < n_removed; ++i) {
        u.removed.push_back(Filter::decode(r));
      }
      break;
    }
    case BusMsgType::kReplUpdate: {
      ReplUpdate& u = m.repl.emplace();
      read_stream(r, u);
      u.epoch = r.u64();
      if (!u.confirm) u.ops = r.blob32();
      break;
    }
  }
  // Also what rejects a confirm that carries a body.
  if (!r.done()) throw DecodeError("trailing bytes in bus message");
  return m;
}

const StreamHeader* BusMessage::stream() const {
  if (interest) return &*interest;
  if (repl) return &*repl;
  return nullptr;
}

std::size_t BusMessage::event_header_size(BusMsgType type,
                                         std::size_t matched,
                                         const Origin& origin) {
  return 1 + (type == BusMsgType::kEvent ? 2 + 8 * matched : 0) +
         (origin.stamped() ? Origin::kWireSize : 0);
}

void BusMessage::write_event_header(std::span<std::uint8_t> out,
                                    BusMsgType type,
                                    std::span<const std::uint64_t> matched,
                                    const Origin& origin) {
  std::uint8_t* p = store_be<1>(out.data(), type_byte(type, origin));
  if (type == BusMsgType::kEvent) {
    p = store_be<2>(p, matched.size());
    for (std::uint64_t id : matched) p = store_be<8>(p, id);
  }
  if (origin.stamped()) {
    p = store_be<6>(p, origin.cell.raw());
    p = store_be<8>(p, origin.epoch);
    store_be<8>(p, origin.seq);
  }
}

BusMessage BusMessage::unsubscribe(std::uint64_t sub_id) {
  BusMessage m;
  m.type = BusMsgType::kUnsubscribe;
  m.sub_id = sub_id;
  return m;
}

BusMessage BusMessage::flow_control(bool pressure) {
  BusMessage m;
  m.type = BusMsgType::kFlowControl;
  m.pressure = pressure;
  return m;
}

BusMessage BusMessage::interest_update(InterestUpdate update) {
  BusMessage m;
  m.type = BusMsgType::kInterestUpdate;
  m.interest = std::move(update);
  return m;
}

BusMessage BusMessage::repl_update(ReplUpdate update) {
  BusMessage m;
  m.type = BusMsgType::kReplUpdate;
  m.repl = std::move(update);
  return m;
}

BusMessage BusMessage::resync_request(BusMsgType stream) {
  BusMessage m;
  m.type = stream;
  if (stream == BusMsgType::kReplUpdate) {
    m.repl.emplace().request_resync = true;
  } else {
    m.interest.emplace().request_resync = true;
  }
  return m;
}

}  // namespace amuse
