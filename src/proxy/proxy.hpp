// Proxy: the per-member object the event bus communicates through.
//
// "Each service granted membership of the SMC is represented by a proxy
//  object, which provides a standard interface to that service. … A proxy
//  is modelled as an abstract class containing generic code applicable to
//  all SMC services, completed by a concrete class containing
//  implementation details specific to the device/service type." (§III-B)
//
// Generic responsibilities implemented here: identity, lifetime (a proxy
// destroys itself and any queued outbound data on "Purge Member"), and the
// delivery-statistics surface. Queueing/acknowledgement strategy is the
// concrete class's business: ForwardingProxy runs a ReliableChannel for
// members that speak the wire protocol; TranslatingProxy implements a
// stop-and-wait device protocol and data translation for dumb sensors.
#pragma once

#include <cstddef>
#include <span>

#include "bus/bus_port.hpp"
#include "bus/messages.hpp"
#include "common/annotations.hpp"

namespace amuse {

class Proxy {
 public:
  Proxy(BusPort& bus, MemberInfo info) : bus_(bus), info_(std::move(info)) {}
  virtual ~Proxy();

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Bus → member: queue a matched event for ordered, acknowledged
  /// delivery. `matched` holds the member's local subscription ids. The
  /// event is the fan-out's one shared value: proxies that forward the
  /// wire protocol queue its body bytes by reference, proxies that
  /// translate read its attributes; none copy it.
  AMUSE_AFFINITY(core_executor)
  virtual void deliver_event(const Event& event,
                             std::span<const std::uint64_t> matched) = 0;

  /// Raw datagram arriving on the bus endpoint from this member.
  AMUSE_AFFINITY(core_executor) virtual void on_datagram(BytesView data) = 0;

  /// "Purge Member": drop any outbound data awaiting delivery and stop all
  /// timers. The bus destroys the proxy right after calling this.
  AMUSE_AFFINITY(core_executor) virtual void on_purge() = 0;

  /// Bus → member control message: filter-table pushes (kInterestUpdate),
  /// flow control (DESIGN.md §9) and the warm-standby replication stream
  /// (DESIGN.md §13). Always control class: none of it may be shed.
  /// Default: the device cannot use any of it; ignore.
  AMUSE_AFFINITY(core_executor)
  virtual void send_control(const BusMessage& message);

  /// Payload bytes this proxy retains for the member (queued + in flight).
  /// Default 0: proxies without a budgeted queue are never shed victims.
  [[nodiscard]] virtual std::size_t retained_bytes() const { return 0; }
  /// Sheds the proxy's oldest queued data-class message; returns false
  /// when nothing is eligible. Called by the bus-wide budget enforcement.
  AMUSE_AFFINITY(core_executor) virtual bool shed_oldest_data() {
    return false;
  }
  /// True when deliveries to the member have stalled (retries exhausted) —
  /// the shed policy prefers victims that are not making progress anyway.
  [[nodiscard]] virtual bool delivery_stalled() const { return false; }

  /// Outbound events queued but not yet acknowledged by the member.
  [[nodiscard]] virtual std::size_t pending() const = 0;

  [[nodiscard]] const MemberInfo& info() const { return info_; }
  [[nodiscard]] ServiceId member_id() const { return info_.id; }

 protected:
  [[nodiscard]] BusPort& bus() { return bus_; }

 private:
  BusPort& bus_;
  MemberInfo info_;
};

}  // namespace amuse
