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

void SubscriptionRegistry::match(const Event& e, MatchResult& out) const {
  std::vector<SubId> hits;
  matcher_->match(e, hits);
  for (SubId id : hits) {
    auto it = by_sub_.find(id);
    if (it == by_sub_.end()) continue;
    out[it->second.member].push_back(it->second.local_id);
  }
  for (auto& [member, locals] : out) {
    std::sort(locals.begin(), locals.end());
    locals.erase(std::unique(locals.begin(), locals.end()), locals.end());
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
