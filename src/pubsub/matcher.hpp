// Matcher: the interchangeable matching engine behind the event bus.
//
// The paper's "EventBus" interface "has allowed us to replace Siena with a
// more lightweight mechanism" (§III-A); this is that seam. Three engines:
//   - BruteForceMatcher — linear scan; the semantic oracle for tests;
//   - SienaMatcher      — subscription poset with covering relations, used
//                         through a translation layer (the Siena-based bus);
//   - FastForwardMatcher — Siena's fast-forwarding per-attribute indexes
//                         (Carzaniga & Wolf, SIGCOMM'03) as an access-
//                         predicate index: each filter is filed under one
//                         selective constraint, so matching costs scale
//                         with the number of filters whose key the event
//                         satisfies — the model for the paper's dedicated
//                         C engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pubsub/filter.hpp"

namespace amuse {

/// Subscription identity assigned by the caller (the bus maps these to
/// proxies). Ids are dense: a caller hands them out from 0 upwards and
/// reuses a removed id before minting a new one, as SubscriptionRegistry
/// does. An engine may therefore index its state by id, holding memory for
/// every id up to the largest one in use.
using SubId = std::uint64_t;

class Matcher {
 public:
  virtual ~Matcher();

  Matcher() = default;
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  /// Registers `filter` under `id`. Re-adding an existing id replaces its
  /// filter.
  virtual void add(SubId id, const Filter& filter) = 0;
  /// Removes a subscription; unknown ids are ignored.
  virtual void remove(SubId id) = 0;
  /// Appends the ids of all subscriptions whose filter matches `e`.
  /// Order is unspecified; ids appear at most once.
  virtual void match(const Event& e, std::vector<SubId>& out) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace amuse
