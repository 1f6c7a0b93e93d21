// Datagram packet format.
//
// Everything the SMC puts on the wire is one of these frames inside a
// transport datagram: reliable-channel DATA/ACK (carrying bus messages) and
// the discovery service's unreliable beacon/handshake packets. The format is
// self-describing and CRC-protected so corrupted or foreign datagrams are
// dropped at this boundary.
//
// Layout (big-endian):
//   magic   u16  = 0xA5EB ("AMUSE Event Bus")
//   version u8   = 1
//   type    u8   PacketType
//   flags   u16
//   session u32  sender's incarnation (distinguishes re-joins, see
//                ReliableChannel)
//   src     u48  ServiceId
//   dst     u48  ServiceId (broadcast() frames use ServiceId::broadcast())
//   seq     u32  data sequence number (DATA) / unused
//   ack     u32  cumulative acknowledgement: next seq expected from peer
//   payload u16-length-prefixed bytes
//   crc     u32  CRC-32 of all preceding bytes
//
// Batched DATA frames (kFlagBatched): the payload is a sequence of N ≥ 1
// length-prefixed sub-messages, each an independent bus message:
//   payload := sub*        sub := len u16 ++ bytes[len]
// covering sequence numbers [seq, seq+N). The capability is flag-gated
// under the same packet version: a sender that never sets the flag emits
// frames byte-identical to the original format, and any receiver of this
// code understands both. decode() validates the sub-structure (still under
// the CRC) and rejects frames whose sub-lengths do not tile the payload.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/service_id.hpp"

namespace amuse {

enum class PacketType : std::uint8_t {
  // Reliable channel.
  kData = 1,
  kAck = 2,
  // Discovery protocol (unreliable, idempotent).
  kBeacon = 16,
  kJoinRequest = 17,
  kJoinChallenge = 18,
  kJoinResponse = 19,
  kJoinAccept = 20,
  kJoinReject = 21,
  kLeave = 22,
  kHeartbeat = 23,
  // HA promotion arbitration (unreliable, idempotent, standby↔standby —
  // DESIGN.md §13.5). Payload codecs live in wire/promotion.hpp.
  kPromotionClaim = 24,
  kPromotionVote = 25,
};

[[nodiscard]] const char* to_string(PacketType t);

/// Packet flag bits.
/// kFlagMoreFragments: this DATA frame carries a non-final fragment of a
/// larger message; the receiver reassembles consecutive fragments (the
/// channel already guarantees order) until a frame without the flag.
inline constexpr std::uint16_t kFlagMoreFragments = 0x0001;
/// kFlagBatched: this DATA frame's payload is N length-prefixed
/// sub-messages covering seqs [seq, seq+N) — see the layout comment above.
/// Mutually exclusive with kFlagMoreFragments (fragments are never
/// coalesced).
inline constexpr std::uint16_t kFlagBatched = 0x0002;

struct Packet {
  PacketType type = PacketType::kData;
  std::uint16_t flags = 0;
  std::uint32_t session = 0;
  ServiceId src;
  ServiceId dst;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  /// The frame's payload. decode() copies it out of the datagram once,
  /// into a shared buffer that every message and event body cut from the
  /// frame keeps alive instead of copying.
  SharedBytes payload;

  /// One sub-message of a DATA frame being encoded: an owned header view
  /// plus a shared event-body view, blitted straight into the frame, so
  /// framing never copies a fan-out's shared bytes.
  struct Sub {
    BytesView head{};
    BytesView tail{};
  };
  /// Encode-time only: when non-empty, `payload` must be empty and encode()
  /// writes these instead — with kFlagBatched each as `u16(head+tail size)
  /// ++ head ++ tail`, without it exactly one, bare. Non-owning — views
  /// must be alive during encode(); decode() never fills it (use
  /// split_batch() on the payload).
  std::vector<Sub> batch{};

  static constexpr std::uint16_t kMagic = 0xA5EB;
  static constexpr std::uint8_t kVersion = 1;
  /// Frame bytes excluding the payload itself.
  static constexpr std::size_t kOverhead = 2 + 1 + 1 + 2 + 4 + 6 + 6 + 4 + 4 +
                                           2 + 4;

  [[nodiscard]] Bytes encode() const;
  /// As encode(), into `out` (replacing its contents): a caller that keeps
  /// one frame buffer reuses its capacity instead of allocating per frame.
  void encode_to(Bytes& out) const;

  /// Payload bytes this frame carries on the wire (sub-message length
  /// prefixes included); encode().size() == kOverhead + payload_wire_size().
  [[nodiscard]] std::size_t payload_wire_size() const;

  /// Returns nullopt for frames that are foreign (bad magic/version), too
  /// short, corrupt (CRC), or otherwise malformed — the caller drops them.
  /// Batched DATA frames whose sub-lengths do not tile the payload are
  /// malformed.
  [[nodiscard]] static std::optional<Packet> decode(BytesView datagram);

  /// Splits a batched DATA payload into its sub-messages (views into
  /// `payload` — same lifetime). nullopt if the u16 sub-lengths do not
  /// exactly tile the payload or the batch is empty.
  [[nodiscard]] static std::optional<std::vector<BytesView>> split_batch(
      BytesView payload);
  /// Number of sub-messages in a batched DATA payload, under the same
  /// tiling rule as split_batch(), without allocating.
  [[nodiscard]] static std::optional<std::size_t> batch_count(
      BytesView payload);
  /// Takes the first sub-message off `rest`, a batched payload that
  /// batch_count() accepted (or the remainder of one).
  static BytesView next_sub(BytesView& rest);
};

}  // namespace amuse
