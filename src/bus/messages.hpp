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
// kSubscribe member → bus    local subscription id + content filter
// kUnsubscribe member → bus  local subscription id
// kQuenchUpdate bus → member the current global filter set, for Elvin-style
//                            quenching (§VI future work, implemented here)
// kFlowControl  bus → member backpressure: a member queue crossed its
//                            high-water mark (pressure=true) or drained to
//                            the low-water mark (pressure=false); senders
//                            should pause/resume publishing. Only emitted
//                            when the bus has watermarks configured, so old
//                            peers never see the new type (back-compat
//                            gated like the JoinAccept session field).
// kInterestUpdate  both ways bus → routing peer: a versioned incremental
//                            (or full) push of the interest table the peer
//                            should subscribe with on the far side of a
//                            federation link; member → bus: a resync
//                            request after a version gap or digest
//                            mismatch. Only sent to gateway-role members,
//                            so old peers never see the new type. Rides
//                            the control class — interest tables are
//                            routing state and must never be shed.
// kReplUpdate   both ways   bus → warm standby: a versioned incremental
//                            diff (or a bare lease renewal) of the core's
//                            durable replication state, digest-checked
//                            exactly like kInterestUpdate; standby → bus:
//                            a resync request after a version gap or
//                            digest mismatch. Only sent to standby-role
//                            members, so old peers never see the new
//                            type. Always control class — replicated core
//                            state must never be shed (DESIGN.md §13).
// kReplSnapshot bus → standby a full replication-state replacement
//                            (admission or resync), the warm standby's
//                            "full table" counterpart of an incremental
//                            kReplUpdate. Control class, same gating.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sha256.hpp"
#include "pubsub/codec.hpp"

namespace amuse {

enum class BusMsgType : std::uint8_t {
  kPublish = 1,
  kEvent = 2,
  kSubscribe = 3,
  kUnsubscribe = 4,
  kQuenchUpdate = 5,
  kFlowControl = 6,
  kInterestUpdate = 7,
  kReplUpdate = 8,
  kReplSnapshot = 9,
};

[[nodiscard]] const char* to_string(BusMsgType t);

/// Type-byte flag: an Origin stamp follows the kPublish/kEvent header.
/// Decoding rejects it on every other message type.
inline constexpr std::uint8_t kOriginFlag = 0x80;

/// The payload of a kInterestUpdate message. Bus → routing peer it carries
/// either a full table replacement (`full`, after admit or on resync) or an
/// incremental add/remove diff that must apply on top of exactly
/// `version - 1`; `digest` is always the SHA-256 identity of the complete
/// table *after* the update, so the receiver can detect divergence and fall
/// back to a resync. Peer → bus only `request_resync` is meaningful.
struct InterestUpdate {
  std::uint64_t version = 0;
  /// FilterSet::digest() of the full table after applying this update.
  Digest256 digest{};
  /// True when added holds the complete table and removed is empty.
  bool full = false;
  /// Member → bus: the mirror lost sync, push a full table.
  bool request_resync = false;
  std::vector<Filter> added;
  std::vector<Filter> removed;
};

/// The payload of a kReplUpdate / kReplSnapshot message (DESIGN.md §13).
/// Bus → standby it carries either a full state replacement (`full`, on
/// admission or resync — sent as kReplSnapshot), an incremental op log that
/// must apply on top of exactly `version - 1`, or a bare lease renewal
/// (`lease`, no ops, version unchanged); `digest` is always the SHA-256
/// identity of the complete replication state *after* the update, so the
/// standby can detect divergence and fall back to a resync. `epoch` is the
/// promotion epoch of the sending core: a standby refuses updates from a
/// core whose epoch it has already seen superseded (split-brain fencing).
/// Standby → bus only `request_resync` is meaningful.
struct ReplUpdate {
  std::uint64_t version = 0;
  /// ReplState::digest() of the full state after applying this update.
  Digest256 digest{};
  /// Promotion epoch of the sending core.
  std::uint64_t epoch = 0;
  /// True when `ops` holds a complete encoded ReplState (kReplSnapshot).
  bool full = false;
  /// True for a bare lease renewal: no ops, version must match the mirror.
  bool lease = false;
  /// Standby → bus: the mirror lost sync, push a full snapshot.
  bool request_resync = false;
  /// Encoded ReplState (full) or encoded op log (incremental); see
  /// bus/replication.hpp for the codec.
  Bytes ops;
};

struct BusMessage {
  BusMsgType type = BusMsgType::kPublish;
  /// kSubscribe / kUnsubscribe: the member's local subscription id.
  std::uint64_t sub_id = 0;
  /// kPublish / kEvent (its origin() rides the frame header).
  std::optional<Event> event;
  /// kSubscribe.
  std::optional<Filter> filter;
  /// kEvent: the member's local subscription ids the event matched.
  std::vector<std::uint64_t> matched;
  /// kQuenchUpdate: every filter currently registered anywhere in the cell.
  std::vector<Filter> quench_filters;
  /// kFlowControl: true = queues crossed the high-water mark, pause
  /// publishing; false = drained to the low-water mark, resume.
  bool pressure = false;
  /// kInterestUpdate.
  std::optional<InterestUpdate> interest;
  /// kReplUpdate / kReplSnapshot.
  std::optional<ReplUpdate> repl;

  [[nodiscard]] Bytes encode() const;
  /// Throws DecodeError on malformed input.
  [[nodiscard]] static BusMessage decode(BytesView data);

  /// The kEvent wire format is a small per-member header (message type,
  /// matched subscription ids, origin stamp) followed by the event body, so
  /// a fan-out can encode the body once and share it:
  ///   encode_event_header(m, e.origin()) ++ encode_event(e)
  ///       == deliver(e, m).encode()
  [[nodiscard]] static Bytes encode_event_header(
      const std::vector<std::uint64_t>& matched, const Origin& origin = {});
  /// One-shot kPublish encoding without copying the event into a message.
  [[nodiscard]] static Bytes encode_publish(const Event& e);

  [[nodiscard]] static BusMessage publish(Event e);
  [[nodiscard]] static BusMessage deliver(Event e,
                                          std::vector<std::uint64_t> matched);
  [[nodiscard]] static BusMessage subscribe(std::uint64_t sub_id, Filter f);
  [[nodiscard]] static BusMessage unsubscribe(std::uint64_t sub_id);
  [[nodiscard]] static BusMessage quench_update(std::vector<Filter> filters);
  [[nodiscard]] static BusMessage flow_control(bool pressure);
  [[nodiscard]] static BusMessage interest_update(InterestUpdate update);
  /// Member → bus: the interest mirror lost sync, request a full table.
  [[nodiscard]] static BusMessage interest_resync_request();
  /// Bus → standby: kReplSnapshot when update.full, else kReplUpdate.
  [[nodiscard]] static BusMessage repl_update(ReplUpdate update);
  /// Standby → bus: the repl mirror lost sync, request a full snapshot.
  [[nodiscard]] static BusMessage repl_resync_request();
};

}  // namespace amuse
