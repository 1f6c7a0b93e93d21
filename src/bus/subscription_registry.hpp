// Subscription registry: the bus-side bookkeeping between members' local
// subscription ids and the matcher's global SubIds.
//
// "As part of the subscription process, a filter is placed in the
//  publish/subscribe server, representing this subscription, and the ID of
//  the proxy registered. This information is used first to determine
//  whether an event is applicable to a given subscriber, and to
//  subsequently push matching events to the subscriber." (§III-B)
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/service_id.hpp"
#include "pubsub/matcher.hpp"

namespace amuse {

class SubscriptionRegistry {
 public:
  explicit SubscriptionRegistry(std::unique_ptr<Matcher> matcher);

  /// Registers member `local_id` under `filter`. Re-subscribing an existing
  /// local id replaces its filter.
  void subscribe(ServiceId member, std::uint64_t local_id,
                 const Filter& filter);
  void unsubscribe(ServiceId member, std::uint64_t local_id);
  /// Drops every subscription of a purged member.
  void remove_member(ServiceId member);

  /// Matching result: each interested member exactly once, with the local
  /// subscription ids that matched (sorted). Deterministic order (by id).
  using MatchResult = std::map<ServiceId, std::vector<std::uint64_t>>;
  void match(const Event& e, MatchResult& out) const;

  /// Every registered filter grouped by owning member — the input to the
  /// interest table's per-link split-horizon views.
  [[nodiscard]] std::map<ServiceId, std::vector<Filter>> filters_by_member()
      const;

  /// Every subscription as (member, local_id, filter) — the input to the
  /// replication log's canonical state (DESIGN.md §13). Deterministic
  /// order: by member id, then local id.
  [[nodiscard]] std::map<ServiceId, std::map<std::uint64_t, Filter>>
  subscriptions_by_member() const;

  [[nodiscard]] std::size_t size() const { return by_sub_.size(); }
  [[nodiscard]] std::size_t member_subscriptions(ServiceId member) const;
  [[nodiscard]] const Matcher& matcher() const { return *matcher_; }

 private:
  struct Record {
    ServiceId member;
    std::uint64_t local_id;
    Filter filter;
  };

  std::unique_ptr<Matcher> matcher_;
  std::unordered_map<SubId, Record> by_sub_;
  std::unordered_map<ServiceId, std::map<std::uint64_t, SubId>> by_member_;
  SubId next_id_ = 1;
};

}  // namespace amuse
