// DeliveryBudget: a bus-wide ledger of payload bytes retained across every
// proxy channel's outbound queue and in-flight window.
//
// The paper's persistent delivery ("events are queued ... until the member
// is purged", §III-B) is only honest if the queues are bounded: a cell host
// is a PDA-class device, and one slow member must not pin the whole fan-out
// history in memory. Each channel charges the ledger when it retains a
// payload and releases it when the entry is acked, shed, or reset.
//
// SharedPayload awareness: the fan-out (DESIGN.md §7) queues one
// shared event body across N member channels. Charging that body N times
// would overstate real memory N-fold and make the bus-wide budget shed far
// too early, so shared tails are refcounted — the bytes are charged on the
// first retaining entry and released with the last. Heads are owned per
// entry and always charged.
//
// Single-threaded like the rest of the delivery pipeline: every charge and
// release happens on the bus's executor.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "common/bytes.hpp"

namespace amuse {

class SharedPayload;

class DeliveryBudget {
 public:
  explicit DeliveryBudget(std::size_t limit) : limit_(limit) {}

  DeliveryBudget(const DeliveryBudget&) = delete;
  DeliveryBudget& operator=(const DeliveryBudget&) = delete;

  /// Accounts one retaining queue entry. The head is charged in full; the
  /// shared tail only on its first retainer.
  void charge(const SharedPayload& payload);
  /// Releases one retaining queue entry (ack, shed, or channel reset).
  void release(const SharedPayload& payload);

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t limit() const { return limit_; }
  [[nodiscard]] bool over_limit() const { return used_ > limit_; }

 private:
  std::size_t limit_;
  std::size_t used_ = 0;
  // Shared tail → number of queue entries (across all channels) retaining
  // it. Keyed by the address of its first byte: SharedPayload tails are
  // immutable, and one event body is the same bytes across the fan-out.
  std::unordered_map<const std::uint8_t*, std::size_t> tail_refs_;
};

}  // namespace amuse
