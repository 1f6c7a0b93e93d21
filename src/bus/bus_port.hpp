// BusPort: the narrow interface proxies use to call back into the event bus
// core (Fig. 3's synchronous arrows between proxy and bus). Splitting it
// from EventBus breaks the include cycle between bus/ and proxy/ and keeps
// proxies testable against a fake bus.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/service_id.hpp"
#include "common/sha256.hpp"
#include "pubsub/event.hpp"
#include "pubsub/filter.hpp"
#include "sim/executor.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {

/// What the discovery service learned about an admitted member; the proxy
/// bootstrap mechanism needs "enough information … to generate the
/// appropriate proxy type for the new service" (§III-C).
struct MemberInfo {
  ServiceId id;
  /// Drives proxy selection, e.g. "sensor.temperature", "console.nurse".
  std::string device_type;
  /// Drives authorisation policies, e.g. "sensor", "nurse", "guest".
  std::string role;
  /// FilterSet digest of the quench table the member still holds from a
  /// previous incarnation (all-zero when it has none). Carried as a
  /// trailing JOIN_RESP field so a promoted core can skip the quench push
  /// for members whose table is already current (no quench storm on
  /// failover).
  Digest256 quench_digest{};
};

/// Members admitted with this role are federation routing peers: the bus
/// pushes them per-link interest tables and counts them as inter-cell
/// links for suppression accounting.
inline constexpr std::string_view kGatewayRole = "gateway";

/// Members admitted with this role are warm standbys: the bus streams them
/// the replication log (kReplSnapshot on admission, kReplUpdate after every
/// mutation) instead of treating them as subscribers.
inline constexpr std::string_view kStandbyRole = "standby";

class BusPort {
 public:
  virtual ~BusPort();

  BusPort() = default;
  BusPort(const BusPort&) = delete;
  BusPort& operator=(const BusPort&) = delete;

  /// A member's proxy hands the bus a fully translated event (Fig. 2 flow).
  /// The bus stamps its metadata in place, then freezes it: from there on
  /// every matching member shares the one instance (encode-once fan-out).
  AMUSE_AFFINITY(core_executor)
  virtual void member_publish(ServiceId member, Event event) = 0;
  /// Registers / replaces the member's subscription `local_id`.
  AMUSE_AFFINITY(core_executor)
  virtual void member_subscribe(ServiceId member, std::uint64_t local_id,
                                Filter filter) = 0;
  AMUSE_AFFINITY(core_executor)
  virtual void member_unsubscribe(ServiceId member,
                                  std::uint64_t local_id) = 0;

  /// Sends a raw frame to a member over the bus's transport endpoint.
  AMUSE_AFFINITY(core_executor)
  virtual void send_datagram(ServiceId dst, BytesView frame) = 0;

  /// Sends a burst of encoded frames to one member, in order. Semantically
  /// identical to calling send_datagram() per frame; EventBus forwards the
  /// burst to Transport::send_batch so one proxy pump round reaches the
  /// kernel in one sendmmsg. Default loops, so bus fakes need not care.
  AMUSE_AFFINITY(core_executor)
  virtual void send_datagram_batch(ServiceId dst,
                                   std::span<const Bytes> frames) {
    for (const Bytes& f : frames) send_datagram(dst, f);
  }

  /// A proxy shed an outbound event for `member` under budget exhaustion
  /// (DESIGN.md §9). The bus accounts it and surfaces it through
  /// BusObserver::on_shed — drops are accounted, never silent. Default
  /// no-op so proxy fakes in tests need not care.
  AMUSE_AFFINITY(core_executor)
  virtual void notify_shed(ServiceId member, const Event& event) {
    (void)member;
    (void)event;
  }
  /// A member's outbound channel crossed its flow-control high-water mark
  /// (under_pressure=true) or drained back below the low-water mark
  /// (false). Default no-op.
  AMUSE_AFFINITY(core_executor)
  virtual void member_pressure(ServiceId member, bool under_pressure) {
    (void)member;
    (void)under_pressure;
  }
  /// A gateway member's interest mirror lost sync (version gap or digest
  /// mismatch) and requests a full interest-table push. Default no-op so
  /// proxy fakes in tests need not care.
  AMUSE_AFFINITY(core_executor)
  virtual void member_interest_resync(ServiceId member) { (void)member; }
  /// A standby member's replication mirror lost sync (version gap or digest
  /// mismatch) and requests a full kReplSnapshot. Default no-op so proxy
  /// fakes in tests need not care.
  AMUSE_AFFINITY(core_executor)
  virtual void member_repl_resync(ServiceId member) { (void)member; }

  [[nodiscard]] virtual Executor& executor() = 0;
  [[nodiscard]] virtual ServiceId bus_id() const = 0;
  /// The bus incarnation tag stamped into reliable-channel frames.
  [[nodiscard]] virtual std::uint32_t bus_session() const = 0;
  /// Session id for `member`'s newly created proxy channel. The default
  /// reuses the bus session; EventBus hands out a distinct, monotonically
  /// increasing value per proxy incarnation so frames from a purged
  /// incarnation can never be adopted as the fresh channel's stream by a
  /// rejoined member — and honours a session reserved at admission time so
  /// the JoinAccept can tell the member which session to expect.
  [[nodiscard]] AMUSE_AFFINITY(core_executor) virtual std::uint32_t
  next_channel_session(ServiceId member) {
    (void)member;
    return bus_session();
  }
  [[nodiscard]] virtual const ReliableChannelConfig& channel_config()
      const = 0;
};

}  // namespace amuse
