#include "smc/gateway.hpp"

#include "common/log.hpp"

namespace amuse {
namespace {
const Logger kLog("smc.gateway");
}

FederationGateway::FederationGateway(SmcMember& from, SmcMember& to)
    : from_(from), to_(to) {
  to_.set_on_interest(
      [this](const FilterSet& interests) { reconcile(interests); });
}

FederationGateway::~FederationGateway() {
  to_.set_on_interest(nullptr);
  for (std::uint64_t sub : static_subs_) from_.unsubscribe(sub);
  for (const auto& [key, sub] : interest_subs_) from_.unsubscribe(sub);
}

void FederationGateway::share(const Filter& filter) {
  static_subs_.push_back(
      from_.subscribe(filter, [this](const Event& e) { forward(e); }));
}

void FederationGateway::reconcile(const FilterSet& interests) {
  ++stats_.interest_reconciles;
  std::map<Bytes, const Filter*> want;
  for (const Filter& f : interests.filters()) {
    want.emplace(FilterSet::encoding_of(f), &f);
  }
  // Interests the destination no longer holds: stop importing them.
  for (auto it = interest_subs_.begin(); it != interest_subs_.end();) {
    if (want.contains(it->first)) {
      ++it;
      continue;
    }
    from_.unsubscribe(it->second);
    it = interest_subs_.erase(it);
  }
  // New downstream interests: subscribe for them in the source cell.
  for (const auto& [key, filter] : want) {
    if (interest_subs_.contains(key)) continue;
    interest_subs_.emplace(
        key,
        from_.subscribe(*filter, [this](const Event& e) { forward(e); }));
  }
  kLog.debug("gateway ", from_.id().to_string(), "→", to_.id().to_string(),
             " reconciled to ", std::to_string(interest_subs_.size()),
             " interests");
}

void FederationGateway::forward(const Event& e) {
  const Origin& origin = e.origin();
  if (origin.stamped()) {
    if (last_forwarded_ == origin) {
      // Overlapping subscriptions matched the same delivery.
      ++stats_.local_dups_suppressed;
      return;
    }
    last_forwarded_ = origin;
    BusClient* dst = to_.client();
    if (dst != nullptr && origin.cell == dst->bus()) {
      ++stats_.loopback_suppressed;
      return;
    }
  }
  // One copy end-to-end: the destination client assigns our publisher
  // identity; the origin stamp crosses untouched.
  if (!to_.publish(Event(e))) {
    ++stats_.dropped_disconnected;
    return;
  }
  ++stats_.forwarded;
}

}  // namespace amuse
