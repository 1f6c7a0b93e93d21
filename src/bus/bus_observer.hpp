// BusObserver: passive instrumentation taps on the event-bus core.
//
// The protocol-torture harness (tests/torture/) validates the paper's
// delivery guarantees from *outside* the bus: its oracle needs the ground
// truth of what the core routed, to whom it fanned out, and how the
// membership and subscription tables looked at that instant. These hooks
// expose exactly that — synchronous, read-only notifications at the
// decision points — without giving observers any way to mutate bus state.
// Every hook is optional; an unset observer costs one pointer test per
// call site, so production configurations pay nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "bus/bus_port.hpp"
#include "pubsub/event.hpp"
#include "pubsub/filter.hpp"

namespace amuse {

struct BusObserver {
  /// An event entered route(): it passed authorisation and is about to be
  /// matched against the registry (before any simulated CPU charge).
  std::function<void(const Event&)> on_publish;
  /// The fan-out handed the event to `member`'s proxy for reliable
  /// delivery. `locals` are the member's matching subscription ids.
  std::function<void(ServiceId member, const Event& event,
                     std::span<const std::uint64_t> locals)>
      on_deliver;
  /// A co-located handler on the bus host received the event.
  std::function<void(const Event&)> on_local_deliver;
  /// Membership changes as the bus core sees them. A re-admission of an
  /// existing id fires on_member_purged (the old incarnation's queue is
  /// destroyed) and then on_member_admitted.
  std::function<void(const MemberInfo&)> on_member_admitted;
  std::function<void(ServiceId)> on_member_purged;
  /// Subscription table changes (after the registry was updated).
  std::function<void(ServiceId member, std::uint64_t local_id,
                     const Filter& filter)>
      on_subscribe;
  std::function<void(ServiceId member, std::uint64_t local_id)>
      on_unsubscribe;
  /// A queued event for `member` was shed under budget exhaustion — the
  /// accounted counterpart of the old silent drop. Fires once per (event,
  /// member) shed; the refined torture guarantee (c) pairs every missing
  /// delivery at a live member with exactly such a record.
  std::function<void(ServiceId member, const Event& event)> on_shed;
  /// A promoted core re-delivered a spooled event to a re-homed `member`
  /// (DESIGN.md §13). Distinct from on_deliver so the oracle can exempt
  /// re-deliveries from its staleness rule; the member-side origin dedup
  /// filter drops any copy the member already saw, so a re-delivery is
  /// at-most-once even when it reaches the handler.
  std::function<void(ServiceId member, const Event& event)> on_redeliver;
  /// An event left the bounded-staleness budget unaccounted-for by normal
  /// delivery: it was evicted from the replication spool, or a deposed
  /// core abandoned it at step-down. Failover may no longer re-deliver it;
  /// oracle rule F3 accepts such a record in place of a delivery.
  std::function<void(const Event& event)> on_staleness;
};

}  // namespace amuse
