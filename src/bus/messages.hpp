// Bus-level messages: what travels inside reliable-channel DATA payloads
// between a member (or its proxy) and the event bus core.
//
// kPublish   member → bus    one event
// kEvent     bus → member    one matched event + the member's matching
//                            subscription ids (a member receives each event
//                            at most once even when several of its
//                            subscriptions match — §II-C exactly-once)
//                            Both carry the event's Origin stamp, when it
//                            has one, in the frame header behind a flag bit
//                            in the type byte (kOriginFlag); an unstamped
//                            frame carries neither flag nor stamp bytes.
//                            Header layout:
//                              kPublish: u8 type [origin] body
//                              kEvent:   u8 type u16 n u64×n [origin] body
//                              origin:   u48 cell u64 epoch u64 seq (22 B)
//                            The body is the rest of the message: the
//                            event's canonical encoding, which decode()
//                            indexes in place in the received buffer and
//                            senders queue by reference behind the header
//                            (DESIGN.md §7). write_event_header() is the
//                            one encoder of these two types; decode()
//                            reads the matched ids in place too.
// kSubscribe member → bus    local subscription id + content filter
// kUnsubscribe member → bus  local subscription id
// kFlowControl  bus → member backpressure: a member queue crossed its
//                            high-water mark (pressure=true) or drained to
//                            the low-water mark (pressure=false); senders
//                            should pause/resume publishing. Only emitted
//                            when the bus has watermarks configured, so old
//                            peers never see the new type (back-compat
//                            gated like the JoinAccept session field).
// kInterestUpdate  both ways the filter-table state stream. bus → member:
//                            a gateway's split-horizon interest table,
//                            which it subscribes with on the far side of a
//                            federation link; with quenching on, every
//                            other member gets the whole cell's table for
//                            Elvin-style quenching (§VI future work).
//                            Body: u16 n, filter×n added; u16 n, filter×n
//                            removed. Rides the control class — filter
//                            tables are routing state and must never be
//                            shed. Type 5 (the retired whole-table quench
//                            push) is rejected.
// kReplUpdate   both ways   the replication state stream. bus → warm
//                            standby: the core's durable replication state
//                            (DESIGN.md §13). Body: u64 epoch (the fence,
//                            present on every frame), then blob32 ops — an
//                            encoded ReplState when full, an op log when
//                            incremental, absent on a confirm (the lease).
//                            Only sent to standby-role members, so old
//                            peers never see the type. Always control
//                            class. Type 9 (the retired snapshot type) is
//                            rejected: a snapshot is a full kReplUpdate.
//
// Both state streams start with one header (bus/state_stream.hpp):
//   u8 flags    0x01 full     body replaces the state wholesale
//               0x02 resync   member → bus: mirror lost sync, send full
//               0x04 confirm  no body; held state must hash to `digest`
//   u64 version
//   u8[32] digest             SHA-256 of the whole state after the frame
// A confirm stands alone: decode rejects it with another flag or a body.
// Member → bus the only state-stream frame is a resync request.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "bus/state_stream.hpp"
#include "common/sha256.hpp"
#include "pubsub/codec.hpp"

namespace amuse {

enum class BusMsgType : std::uint8_t {
  kPublish = 1,
  kEvent = 2,
  kSubscribe = 3,
  kUnsubscribe = 4,
  // 5 was the retired whole-table quench push; decode rejects it.
  kFlowControl = 6,
  kInterestUpdate = 7,
  kReplUpdate = 8,
  // 9 was the retired replication snapshot; decode rejects it.
};

[[nodiscard]] const char* to_string(BusMsgType t);

/// Type-byte flag: an Origin stamp follows the kPublish/kEvent header.
/// Decoding rejects it on every other message type.
inline constexpr std::uint8_t kOriginFlag = 0x80;

/// The matched subscription ids of a decoded kEvent, read in place: a view
/// of the message's u64×n run, sharing its buffer, each id loaded
/// big-endian as it is visited. Decoding a delivery allocates nothing for
/// its ids.
class MatchedIds {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::uint64_t;

    iterator() = default;
    explicit iterator(const std::uint8_t* p) : p_(p) {}
    std::uint64_t operator*() const { return load_be<8>(p_); }
    iterator& operator++() {
      p_ += 8;
      return *this;
    }
    iterator operator++(int) {
      iterator was = *this;
      p_ += 8;
      return was;
    }
    bool operator==(const iterator&) const = default;

   private:
    const std::uint8_t* p_ = nullptr;
  };

  MatchedIds() = default;
  /// `ids` holds whole u64s (its size is a multiple of 8).
  explicit MatchedIds(SharedBytes ids) : ids_(std::move(ids)) {}

  [[nodiscard]] std::size_t size() const { return ids_.size() / 8; }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] iterator begin() const { return iterator(ids_.begin()); }
  [[nodiscard]] iterator end() const { return iterator(ids_.end()); }

 private:
  SharedBytes ids_;
};

/// The payload of a kInterestUpdate message: a state-stream frame whose
/// state is the member's filter table (FilterSet::digest()). A full frame
/// carries the complete table in `added`; an increment carries the diff.
struct InterestUpdate : StreamHeader {
  std::vector<Filter> added;
  std::vector<Filter> removed;
};

/// The payload of a kReplUpdate message (DESIGN.md §13): a state-stream
/// frame whose state is the core's ReplState (ReplState::digest()). A full
/// frame (the snapshot) carries the encoded ReplState in `ops`; an
/// increment the encoded op log; a confirm is the bare lease renewal.
/// `epoch` is the promotion epoch of the sending core: a standby refuses
/// frames from a core whose epoch it has already seen superseded
/// (split-brain fencing).
struct ReplUpdate : StreamHeader {
  std::uint64_t epoch = 0;
  /// See bus/replication.hpp for the codec.
  Bytes ops;
};

struct BusMessage {
  BusMsgType type = BusMsgType::kPublish;
  /// kSubscribe / kUnsubscribe: the member's local subscription id.
  std::uint64_t sub_id = 0;
  /// kPublish / kEvent (its origin() rides the frame header). Decoded, it
  /// shares the message's buffer.
  std::optional<Event> event;
  /// kSubscribe.
  std::optional<Filter> filter;
  /// kEvent: the member's local subscription ids the event matched.
  MatchedIds matched;
  /// kFlowControl: true = queues crossed the high-water mark, pause
  /// publishing; false = drained to the low-water mark, resume.
  bool pressure = false;
  /// kInterestUpdate.
  std::optional<InterestUpdate> interest;
  /// kReplUpdate.
  std::optional<ReplUpdate> repl;

  /// The state-stream header of a kInterestUpdate / kReplUpdate, else null.
  [[nodiscard]] const StreamHeader* stream() const;

  /// Encodes the five subscription and control types. A kPublish or kEvent
  /// is written with write_event_header() and its event's body; asking
  /// encode() for one throws std::logic_error.
  [[nodiscard]] Bytes encode() const;
  /// A kSubscribe message, written straight from `f` into a buffer of
  /// exactly its size: the one encoder of the type.
  [[nodiscard]] static Bytes encode_subscribe(std::uint64_t sub_id,
                                              const Filter& f);
  /// Throws DecodeError on malformed input. A decoded event shares
  /// `data`'s buffer: the kPublish/kEvent body is indexed where it lies.
  [[nodiscard]] static BusMessage decode(const SharedBytes& data);
  /// As above, first copying `data` into a fresh shared buffer.
  [[nodiscard]] static BusMessage decode(BytesView data);

  /// A kPublish or kEvent message is a small header (message type, for
  /// kEvent the matched subscription ids, the origin stamp) followed by
  /// the event body, so the body's shared bytes travel as they are behind
  /// it. The header's size; `matched` must be empty for kPublish.
  [[nodiscard]] static std::size_t event_header_size(BusMsgType type,
                                                     std::size_t matched,
                                                     const Origin& origin);
  /// Writes that header into `out`, which holds exactly its size.
  static void write_event_header(std::span<std::uint8_t> out, BusMsgType type,
                                 std::span<const std::uint64_t> matched,
                                 const Origin& origin);
  [[nodiscard]] static BusMessage unsubscribe(std::uint64_t sub_id);
  [[nodiscard]] static BusMessage flow_control(bool pressure);
  [[nodiscard]] static BusMessage interest_update(InterestUpdate update);
  [[nodiscard]] static BusMessage repl_update(ReplUpdate update);
  /// Member → bus: the mirror of `stream` (kInterestUpdate or kReplUpdate)
  /// lost sync, request a full frame.
  [[nodiscard]] static BusMessage resync_request(BusMsgType stream);
};

}  // namespace amuse
