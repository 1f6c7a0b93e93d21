#include "wire/packet.hpp"

#include "common/crc32.hpp"

namespace amuse {

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kBeacon: return "BEACON";
    case PacketType::kJoinRequest: return "JOIN_REQ";
    case PacketType::kJoinChallenge: return "JOIN_CHAL";
    case PacketType::kJoinResponse: return "JOIN_RESP";
    case PacketType::kJoinAccept: return "JOIN_ACCEPT";
    case PacketType::kJoinReject: return "JOIN_REJECT";
    case PacketType::kLeave: return "LEAVE";
    case PacketType::kHeartbeat: return "HEARTBEAT";
    case PacketType::kPromotionClaim: return "PROMO_CLAIM";
    case PacketType::kPromotionVote: return "PROMO_VOTE";
  }
  return "?";
}

namespace {
bool valid_type(std::uint8_t t) {
  switch (static_cast<PacketType>(t)) {
    case PacketType::kData:
    case PacketType::kAck:
    case PacketType::kBeacon:
    case PacketType::kJoinRequest:
    case PacketType::kJoinChallenge:
    case PacketType::kJoinResponse:
    case PacketType::kJoinAccept:
    case PacketType::kJoinReject:
    case PacketType::kLeave:
    case PacketType::kHeartbeat:
    case PacketType::kPromotionClaim:
    case PacketType::kPromotionVote:
      return true;
  }
  return false;
}

// Walks a batched DATA payload sub by sub, handing each to `visit`. False
// if the u16 sub-lengths do not exactly tile the payload or it is empty.
// The one tiling rule, shared by decode()'s validity check (which visits
// nothing and so allocates nothing), batch_count() and split_batch().
template <class Visit>
bool walk_batch(BytesView payload, Visit&& visit) {
  Reader r(payload);
  if (r.done()) return false;  // a batch carries at least one sub
  try {
    while (!r.done()) visit(r.raw(r.u16()));
  } catch (const DecodeError&) {
    return false;
  }
  return true;
}
}  // namespace

std::size_t Packet::payload_wire_size() const {
  if (batch.empty()) return payload.size();
  const std::size_t prefix = (flags & kFlagBatched) != 0 ? 2 : 0;
  std::size_t total = 0;
  for (const Sub& s : batch) total += prefix + s.head.size() + s.tail.size();
  return total;
}

Bytes Packet::encode() const {
  Bytes out;
  encode_to(out);
  return out;
}

void Packet::encode_to(Bytes& out) const {
  std::size_t total = payload_wire_size();
  if (total > 0xFFFF) {
    throw std::length_error("packet payload exceeds u16 length prefix");
  }
  out.clear();
  out.reserve(kOverhead + total);
  Writer w(std::move(out));
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(flags);
  w.u32(session);
  w.u48(src.raw());
  w.u48(dst.raw());
  w.u32(seq);
  w.u32(ack);
  w.u16(static_cast<std::uint16_t>(total));
  w.raw(payload.view());
  const bool prefixed = (flags & kFlagBatched) != 0;
  for (const Sub& s : batch) {
    if (prefixed) w.u16(static_cast<std::uint16_t>(s.head.size() + s.tail.size()));
    w.raw(s.head);
    w.raw(s.tail);
  }
  std::uint32_t crc = crc32(w.bytes());
  w.u32(crc);
  out = std::move(w).take();
}

std::optional<Packet> Packet::decode(BytesView datagram) {
  if (datagram.size() < kOverhead) return std::nullopt;
  // CRC covers everything before the trailing 4 bytes.
  BytesView body = datagram.subspan(0, datagram.size() - 4);
  Reader crc_reader(datagram.subspan(datagram.size() - 4));
  std::uint32_t want = 0;
  try {
    want = crc_reader.u32();
    if (crc32(body) != want) return std::nullopt;

    Reader r(body);
    if (r.u16() != kMagic) return std::nullopt;
    if (r.u8() != kVersion) return std::nullopt;
    std::uint8_t raw_type = r.u8();
    if (!valid_type(raw_type)) return std::nullopt;

    Packet p;
    p.type = static_cast<PacketType>(raw_type);
    p.flags = r.u16();
    p.session = r.u32();
    p.src = ServiceId(r.u48());
    p.dst = ServiceId(r.u48());
    p.seq = r.u32();
    p.ack = r.u32();
    BytesView payload = r.raw(r.u16());
    if (!r.done()) return std::nullopt;  // trailing garbage under valid CRC
    if (p.type == PacketType::kData && (p.flags & kFlagBatched) != 0 &&
        !walk_batch(payload, [](BytesView) {})) {
      return std::nullopt;  // sub-lengths do not tile the payload
    }
    p.payload = SharedBytes::copy_of(payload);
    return p;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::optional<std::vector<BytesView>> Packet::split_batch(BytesView payload) {
  std::vector<BytesView> subs;
  if (!walk_batch(payload, [&](BytesView sub) { subs.push_back(sub); })) {
    return std::nullopt;
  }
  return subs;
}

std::optional<std::size_t> Packet::batch_count(BytesView payload) {
  std::size_t n = 0;
  if (!walk_batch(payload, [&](BytesView) { ++n; })) return std::nullopt;
  return n;
}

BytesView Packet::next_sub(BytesView& rest) {
  std::size_t len = load_be<2>(rest.data());
  BytesView sub = rest.subspan(2, len);
  rest = rest.subspan(2 + len);
  return sub;
}

}  // namespace amuse
