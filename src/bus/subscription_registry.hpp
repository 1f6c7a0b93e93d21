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
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/service_id.hpp"
#include "pubsub/matcher.hpp"

namespace amuse {

class SubscriptionRegistry {
 public:
  explicit SubscriptionRegistry(std::unique_ptr<Matcher> matcher);

  /// Registers member `local_id` under `filter`, which the registry keeps.
  /// Re-subscribing an existing local id replaces its filter.
  void subscribe(ServiceId member, std::uint64_t local_id, Filter filter);
  void unsubscribe(ServiceId member, std::uint64_t local_id);
  /// Drops every subscription of a purged member.
  void remove_member(ServiceId member);

  /// Matching result: each interested member exactly once (ascending id),
  /// with the local subscription ids that matched (ascending, unique).
  /// Iterates as `[member, locals]`. Flat storage, meant to be reused:
  /// clear() and match() keep the capacity, so a warm result allocates
  /// nothing.
  class MatchResult {
    struct Group {
      ServiceId member;
      std::size_t begin;  // [begin, end) into locals_
      std::size_t end;
    };

   public:
    struct Entry {
      ServiceId member;
      std::span<const std::uint64_t> locals;
    };

    class Iterator {
     public:
      Entry operator*() const {
        return {group_->member,
                {locals_ + group_->begin, group_->end - group_->begin}};
      }
      Iterator& operator++() {
        ++group_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return group_ == o.group_; }

     private:
      friend class MatchResult;
      Iterator(const Group* group, const std::uint64_t* locals)
          : group_(group), locals_(locals) {}
      const Group* group_;
      const std::uint64_t* locals_;
    };

    void clear() {
      groups_.clear();
      locals_.clear();
    }
    /// Number of members (not subscriptions).
    [[nodiscard]] std::size_t size() const { return groups_.size(); }
    [[nodiscard]] bool empty() const { return groups_.empty(); }
    [[nodiscard]] bool contains(ServiceId member) const;
    [[nodiscard]] Iterator begin() const {
      return {groups_.data(), locals_.data()};
    }
    [[nodiscard]] Iterator end() const {
      return {groups_.data() + groups_.size(), locals_.data()};
    }

   private:
    friend class SubscriptionRegistry;
    std::vector<Group> groups_;          // one per member, ascending
    std::vector<std::uint64_t> locals_;  // each group's ids, contiguous
    std::vector<std::pair<ServiceId, std::uint64_t>> pairs_;  // fill scratch
  };
  /// Replaces `out` with the members and local ids whose filters match.
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
  /// One member's subscriptions by local id (empty when it has none).
  [[nodiscard]] std::map<std::uint64_t, Filter> subscriptions_of(
      ServiceId member) const;

  [[nodiscard]] std::size_t size() const {
    return records_.size() - free_.size();
  }
  [[nodiscard]] std::size_t member_subscriptions(ServiceId member) const;
  [[nodiscard]] const Matcher& matcher() const { return *matcher_; }

 private:
  struct Record {
    ServiceId member;
    std::uint64_t local_id;
    Filter filter;
  };

  /// Takes `id` out of the matcher and recycles its record.
  void retire(SubId id);

  std::unique_ptr<Matcher> matcher_;
  // SubIds are dense and recycled: a SubId indexes records_, so a match hit
  // resolves to its member with one array index.
  std::vector<Record> records_;
  std::vector<SubId> free_;  // unused records_ slots
  // Each member's (local id, SubId) pairs, ascending by local id. A
  // member's ids ascend as it subscribes, so a new one is appended.
  using Locals = std::vector<std::pair<std::uint64_t, SubId>>;
  std::unordered_map<ServiceId, Locals> by_member_;
  mutable std::vector<SubId> hits_;  // match() scratch, reused
};

}  // namespace amuse
