#include "bus/subscription_registry.hpp"

#include <algorithm>

namespace amuse {

SubscriptionRegistry::SubscriptionRegistry(std::unique_ptr<Matcher> matcher)
    : matcher_(std::move(matcher)) {}

void SubscriptionRegistry::subscribe(ServiceId member, std::uint64_t local_id,
                                     const Filter& filter) {
  unsubscribe(member, local_id);
  SubId id = next_id_++;
  matcher_->add(id, filter);
  by_sub_.emplace(id, Record{member, local_id, filter});
  by_member_[member].emplace(local_id, id);
}

void SubscriptionRegistry::unsubscribe(ServiceId member,
                                       std::uint64_t local_id) {
  auto mit = by_member_.find(member);
  if (mit == by_member_.end()) return;
  auto lit = mit->second.find(local_id);
  if (lit == mit->second.end()) return;
  matcher_->remove(lit->second);
  by_sub_.erase(lit->second);
  mit->second.erase(lit);
  if (mit->second.empty()) by_member_.erase(mit);
}

void SubscriptionRegistry::remove_member(ServiceId member) {
  auto mit = by_member_.find(member);
  if (mit == by_member_.end()) return;
  for (const auto& [local, sub] : mit->second) {
    matcher_->remove(sub);
    by_sub_.erase(sub);
  }
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
    auto it = by_sub_.find(id);
    if (it == by_sub_.end()) continue;
    pairs.emplace_back(it->second.member, it->second.local_id);
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
      filters.push_back(by_sub_.at(sub).filter);
    }
  }
  return out;
}

std::map<ServiceId, std::map<std::uint64_t, Filter>>
SubscriptionRegistry::subscriptions_by_member() const {
  std::map<ServiceId, std::map<std::uint64_t, Filter>> out;
  for (const auto& [member, locals] : by_member_) {
    std::map<std::uint64_t, Filter>& subs = out[member];
    for (const auto& [local, sub] : locals) {
      subs.emplace(local, by_sub_.at(sub).filter);
    }
  }
  return out;
}

std::size_t SubscriptionRegistry::member_subscriptions(
    ServiceId member) const {
  auto it = by_member_.find(member);
  return it == by_member_.end() ? 0 : it->second.size();
}

}  // namespace amuse
