#include "bus/interest_table.hpp"

#include <utility>

namespace amuse {

void InterestTable::rebuild(std::map<ServiceId, std::vector<Filter>> by_owner) {
  by_owner_ = std::move(by_owner);
  std::vector<Filter> all;
  for (const auto& [owner, filters] : by_owner_) {
    all.insert(all.end(), filters.begin(), filters.end());
  }
  all_ = FilterSet(std::move(all));
}

FilterSet InterestTable::export_for(ServiceId link) const {
  std::vector<Filter> kept;
  for (const auto& [owner, filters] : by_owner_) {
    if (owner == link) continue;  // split horizon: never echo a link's own
    kept.insert(kept.end(), filters.begin(), filters.end());
  }
  FilterSet view(std::move(kept));
  view.compact();
  return view;
}

std::optional<InterestUpdate> InterestTable::refresh_link(ServiceId link) {
  FilterSet view = export_for(link);
  auto it = links_.find(link);
  if (it == links_.end()) {
    // First push to this link: a full table.
    LinkState state;
    state.version = 1;
    state.pushed = std::move(view);
    InterestUpdate u;
    u.version = state.version;
    u.digest = state.pushed.digest();
    u.full = true;
    u.added = state.pushed.filters();
    links_.emplace(link, std::move(state));
    return u;
  }
  if (view == it->second.pushed) return std::nullopt;
  InterestUpdate u;
  u.version = ++it->second.version;
  u.added = it->second.pushed.added_in(view);
  u.removed = it->second.pushed.removed_in(view);
  u.digest = view.digest();
  it->second.pushed = std::move(view);
  return u;
}

InterestUpdate InterestTable::full_update(ServiceId link) {
  LinkState& state = links_[link];
  state.pushed = export_for(link);
  ++state.version;
  InterestUpdate u;
  u.version = state.version;
  u.digest = state.pushed.digest();
  u.full = true;
  u.added = state.pushed.filters();
  return u;
}

void InterestTable::drop_link(ServiceId link) { links_.erase(link); }

std::uint64_t InterestTable::link_version(ServiceId link) const {
  auto it = links_.find(link);
  return it == links_.end() ? 0 : it->second.version;
}

InterestMirror::Apply InterestMirror::apply(const InterestUpdate& update) {
  if (update.full) {
    set_ = FilterSet(update.added);
    version_ = update.version;
    // A full table that does not hash to its own digest means the two
    // sides canonicalise differently — stay unsynced and keep asking.
    synced_ = digest_equal(set_.digest(), update.digest);
    return synced_ ? Apply::kApplied : Apply::kResyncNeeded;
  }
  if (!synced_ || update.version != version_ + 1) {
    // Version gap (or no full table yet): the local replica is stale and
    // must not be routed on until a full table arrives.
    synced_ = false;
    return Apply::kResyncNeeded;
  }
  for (const Filter& f : update.removed) set_.erase(f);
  for (const Filter& f : update.added) set_.insert(f);
  version_ = update.version;
  if (!digest_equal(set_.digest(), update.digest)) {
    synced_ = false;
    return Apply::kResyncNeeded;
  }
  return Apply::kApplied;
}

void InterestMirror::reset() {
  synced_ = false;
  version_ = 0;
  set_ = FilterSet();
}

bool OriginDedup::admit(const Origin& origin) {
  Window& w = origins_[{origin.cell, origin.epoch}];
  const std::uint64_t seq = origin.seq;
  if (seq < w.floor) return false;  // fell off the window: presume seen
  if (!w.seen.insert(seq).second) return false;
  w.order.push_back(seq);
  while (w.order.size() > window_) {
    std::uint64_t evicted = w.order.front();
    w.order.pop_front();
    w.seen.erase(evicted);
    if (evicted >= w.floor) w.floor = evicted + 1;
  }
  return true;
}

}  // namespace amuse
