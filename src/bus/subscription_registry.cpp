#include "bus/subscription_registry.hpp"

#include <algorithm>

namespace amuse {

SubscriptionRegistry::SubscriptionRegistry(std::unique_ptr<Matcher> matcher)
    : matcher_(std::move(matcher)) {}

namespace {

/// The first of a member's (local id, SubId) pairs at or past `local_id`.
auto lower(auto& locals, std::uint64_t local_id) {
  // A member's ids ascend as it subscribes: a new one lands past the end.
  if (locals.empty() || locals.back().first < local_id) return locals.end();
  return std::ranges::lower_bound(locals, local_id, {},
                                  &std::pair<std::uint64_t, SubId>::first);
}

}  // namespace

void SubscriptionRegistry::subscribe(ServiceId member, std::uint64_t local_id,
                                     Filter filter) {
  Locals& locals = by_member_[member];
  auto at = lower(locals, local_id);
  SubId id = records_.size();
  if (at != locals.end() && at->first == local_id) {
    id = at->second;  // the matcher's add() replaces the old filter
    records_[id].filter = std::move(filter);
  } else {
    if (free_.empty()) {
      records_.push_back(Record{member, local_id, std::move(filter)});
    } else {
      id = free_.back();
      free_.pop_back();
      records_[id] = Record{member, local_id, std::move(filter)};
    }
    locals.emplace(at, local_id, id);
  }
  matcher_->add(id, records_[id].filter);
}

void SubscriptionRegistry::retire(SubId id) {
  matcher_->remove(id);
  records_[id].filter = Filter();
  free_.push_back(id);
}

void SubscriptionRegistry::unsubscribe(ServiceId member,
                                       std::uint64_t local_id) {
  auto mit = by_member_.find(member);
  if (mit == by_member_.end()) return;
  auto lit = lower(mit->second, local_id);
  if (lit == mit->second.end() || lit->first != local_id) return;
  retire(lit->second);
  mit->second.erase(lit);
  if (mit->second.empty()) by_member_.erase(mit);
}

void SubscriptionRegistry::remove_member(ServiceId member) {
  auto mit = by_member_.find(member);
  if (mit == by_member_.end()) return;
  for (const auto& [local, sub] : mit->second) retire(sub);
  by_member_.erase(mit);
}

bool SubscriptionRegistry::MatchResult::contains(ServiceId member) const {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), member,
      [](const Group& g, ServiceId m) { return g.member < m; });
  return it != groups_.end() && it->member == member;
}

void SubscriptionRegistry::match(const Event& e, MatchResult& out) const {
  out.clear();
  hits_.clear();
  matcher_->match(e, hits_);
  auto& pairs = out.pairs_;
  pairs.clear();
  for (SubId id : hits_) {
    const Record& r = records_[id];
    pairs.emplace_back(r.member, r.local_id);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [member, local] : pairs) {
    if (out.groups_.empty() || out.groups_.back().member != member) {
      out.groups_.push_back({member, out.locals_.size(), out.locals_.size()});
    }
    out.locals_.push_back(local);
    ++out.groups_.back().end;
  }
}

std::map<ServiceId, std::vector<Filter>>
SubscriptionRegistry::filters_by_member() const {
  std::map<ServiceId, std::vector<Filter>> out;
  for (const auto& [member, locals] : by_member_) {
    std::vector<Filter>& filters = out[member];
    filters.reserve(locals.size());
    for (const auto& [local, sub] : locals) {
      filters.push_back(records_[sub].filter);
    }
  }
  return out;
}

std::map<ServiceId, std::map<std::uint64_t, Filter>>
SubscriptionRegistry::subscriptions_by_member() const {
  std::map<ServiceId, std::map<std::uint64_t, Filter>> out;
  for (const auto& [member, locals] : by_member_) {
    out.emplace(member, subscriptions_of(member));
  }
  return out;
}

std::map<std::uint64_t, Filter> SubscriptionRegistry::subscriptions_of(
    ServiceId member) const {
  std::map<std::uint64_t, Filter> out;
  auto it = by_member_.find(member);
  if (it == by_member_.end()) return out;
  for (const auto& [local, sub] : it->second) {
    out.emplace_hint(out.end(), local, records_[sub].filter);
  }
  return out;
}

std::size_t SubscriptionRegistry::member_subscriptions(
    ServiceId member) const {
  auto it = by_member_.find(member);
  return it == by_member_.end() ? 0 : it->second.size();
}

}  // namespace amuse
