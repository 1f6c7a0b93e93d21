#include "bus/messages.hpp"

#include <algorithm>

namespace amuse {

const char* to_string(BusMsgType t) {
  switch (t) {
    case BusMsgType::kPublish: return "PUBLISH";
    case BusMsgType::kEvent: return "EVENT";
    case BusMsgType::kSubscribe: return "SUBSCRIBE";
    case BusMsgType::kUnsubscribe: return "UNSUBSCRIBE";
    case BusMsgType::kQuenchUpdate: return "QUENCH";
    case BusMsgType::kFlowControl: return "FLOW";
    case BusMsgType::kInterestUpdate: return "INTEREST";
    case BusMsgType::kReplUpdate: return "REPL";
    case BusMsgType::kReplSnapshot: return "REPL-SNAPSHOT";
  }
  return "?";
}

namespace {

void write_origin(Writer& w, const Origin& origin) {
  if (origin.stamped()) origin.encode(w);
}

Origin read_origin(Reader& r) {
  Origin o = Origin::decode(r);
  if (!o.stamped()) throw DecodeError("origin stamp without a cell");
  return o;
}

std::uint8_t type_byte(BusMsgType type, const Origin& origin) {
  auto raw = static_cast<std::uint8_t>(type);
  return origin.stamped() ? static_cast<std::uint8_t>(raw | kOriginFlag) : raw;
}

}  // namespace

Bytes BusMessage::encode() const {
  Writer w;
  const bool carries_event =
      type == BusMsgType::kPublish || type == BusMsgType::kEvent;
  const Origin origin = carries_event ? event->origin() : Origin{};
  w.u8(type_byte(type, origin));
  switch (type) {
    case BusMsgType::kPublish:
      write_origin(w, origin);
      event->encode(w);
      break;
    case BusMsgType::kEvent:
      w.u16(static_cast<std::uint16_t>(matched.size()));
      for (std::uint64_t id : matched) w.u64(id);
      write_origin(w, origin);
      event->encode(w);
      break;
    case BusMsgType::kSubscribe:
      w.u64(sub_id);
      filter->encode(w);
      break;
    case BusMsgType::kUnsubscribe:
      w.u64(sub_id);
      break;
    case BusMsgType::kQuenchUpdate:
      w.u16(static_cast<std::uint16_t>(quench_filters.size()));
      for (const Filter& f : quench_filters) f.encode(w);
      break;
    case BusMsgType::kFlowControl:
      w.u8(pressure ? 1 : 0);
      break;
    case BusMsgType::kInterestUpdate: {
      std::uint8_t flags = 0;
      if (interest->full) flags |= 0x01;
      if (interest->request_resync) flags |= 0x02;
      w.u8(flags);
      w.u64(interest->version);
      w.raw(interest->digest);
      w.u16(static_cast<std::uint16_t>(interest->added.size()));
      for (const Filter& f : interest->added) f.encode(w);
      w.u16(static_cast<std::uint16_t>(interest->removed.size()));
      for (const Filter& f : interest->removed) f.encode(w);
      break;
    }
    case BusMsgType::kReplUpdate:
    case BusMsgType::kReplSnapshot: {
      std::uint8_t flags = 0;
      if (repl->full) flags |= 0x01;
      if (repl->request_resync) flags |= 0x02;
      if (repl->lease) flags |= 0x04;
      w.u8(flags);
      w.u64(repl->version);
      w.raw(repl->digest);
      w.u64(repl->epoch);
      w.blob32(repl->ops);
      break;
    }
  }
  return std::move(w).take();
}

BusMessage BusMessage::decode(BytesView data) {
  Reader r(data);
  BusMessage m;
  auto raw = r.u8();
  const bool stamped = (raw & kOriginFlag) != 0;
  raw &= static_cast<std::uint8_t>(~kOriginFlag);
  if (raw < 1 || raw > 9) {
    throw DecodeError("bad bus message type " + std::to_string(raw));
  }
  m.type = static_cast<BusMsgType>(raw);
  if (stamped && m.type != BusMsgType::kPublish &&
      m.type != BusMsgType::kEvent) {
    throw DecodeError(std::string("origin flag on ") + to_string(m.type));
  }
  switch (m.type) {
    case BusMsgType::kPublish: {
      Origin origin = stamped ? read_origin(r) : Origin{};
      m.event = Event::decode(r);
      m.event->set_origin(origin);
      break;
    }
    case BusMsgType::kEvent: {
      std::uint16_t n = r.u16();
      m.matched.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) m.matched.push_back(r.u64());
      Origin origin = stamped ? read_origin(r) : Origin{};
      m.event = Event::decode(r);
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
    case BusMsgType::kQuenchUpdate: {
      std::uint16_t n = r.u16();
      m.quench_filters.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) {
        m.quench_filters.push_back(Filter::decode(r));
      }
      break;
    }
    case BusMsgType::kFlowControl: {
      std::uint8_t state = r.u8();
      if (state > 1) {
        throw DecodeError("bad flow-control state " + std::to_string(state));
      }
      m.pressure = state == 1;
      break;
    }
    case BusMsgType::kInterestUpdate: {
      std::uint8_t flags = r.u8();
      if (flags > 3) {
        throw DecodeError("bad interest-update flags " + std::to_string(flags));
      }
      InterestUpdate u;
      u.full = (flags & 0x01) != 0;
      u.request_resync = (flags & 0x02) != 0;
      u.version = r.u64();
      BytesView digest = r.raw(u.digest.size());
      std::copy(digest.begin(), digest.end(), u.digest.begin());
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
      m.interest = std::move(u);
      break;
    }
    case BusMsgType::kReplUpdate:
    case BusMsgType::kReplSnapshot: {
      std::uint8_t flags = r.u8();
      if (flags > 7) {
        throw DecodeError("bad repl-update flags " + std::to_string(flags));
      }
      ReplUpdate u;
      u.full = (flags & 0x01) != 0;
      u.request_resync = (flags & 0x02) != 0;
      u.lease = (flags & 0x04) != 0;
      u.version = r.u64();
      BytesView digest = r.raw(u.digest.size());
      std::copy(digest.begin(), digest.end(), u.digest.begin());
      u.epoch = r.u64();
      u.ops = r.blob32();
      if (m.type == BusMsgType::kReplSnapshot && !u.full) {
        throw DecodeError("repl snapshot without full flag");
      }
      m.repl = std::move(u);
      break;
    }
  }
  if (!r.done()) throw DecodeError("trailing bytes in bus message");
  return m;
}

Bytes BusMessage::encode_event_header(
    const std::vector<std::uint64_t>& matched, const Origin& origin) {
  Writer w(1 + 2 + 8 * matched.size() + (origin.stamped() ? Origin::kWireSize : 0));
  w.u8(type_byte(BusMsgType::kEvent, origin));
  w.u16(static_cast<std::uint16_t>(matched.size()));
  for (std::uint64_t id : matched) w.u64(id);
  write_origin(w, origin);
  return std::move(w).take();
}

Bytes BusMessage::encode_publish(const Event& e) {
  Writer w;
  w.u8(type_byte(BusMsgType::kPublish, e.origin()));
  write_origin(w, e.origin());
  e.encode(w);
  return std::move(w).take();
}

BusMessage BusMessage::publish(Event e) {
  BusMessage m;
  m.type = BusMsgType::kPublish;
  m.event = std::move(e);
  return m;
}

BusMessage BusMessage::deliver(Event e, std::vector<std::uint64_t> matched) {
  BusMessage m;
  m.type = BusMsgType::kEvent;
  m.event = std::move(e);
  m.matched = std::move(matched);
  return m;
}

BusMessage BusMessage::subscribe(std::uint64_t sub_id, Filter f) {
  BusMessage m;
  m.type = BusMsgType::kSubscribe;
  m.sub_id = sub_id;
  m.filter = std::move(f);
  return m;
}

BusMessage BusMessage::unsubscribe(std::uint64_t sub_id) {
  BusMessage m;
  m.type = BusMsgType::kUnsubscribe;
  m.sub_id = sub_id;
  return m;
}

BusMessage BusMessage::quench_update(std::vector<Filter> filters) {
  BusMessage m;
  m.type = BusMsgType::kQuenchUpdate;
  m.quench_filters = std::move(filters);
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

BusMessage BusMessage::interest_resync_request() {
  BusMessage m;
  m.type = BusMsgType::kInterestUpdate;
  m.interest.emplace();
  m.interest->request_resync = true;
  return m;
}

BusMessage BusMessage::repl_update(ReplUpdate update) {
  BusMessage m;
  m.type = update.full ? BusMsgType::kReplSnapshot : BusMsgType::kReplUpdate;
  m.repl = std::move(update);
  return m;
}

BusMessage BusMessage::repl_resync_request() {
  BusMessage m;
  m.type = BusMsgType::kReplUpdate;
  m.repl.emplace();
  m.repl->request_resync = true;
  return m;
}

}  // namespace amuse
