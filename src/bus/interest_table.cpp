#include "bus/interest_table.hpp"

#include <utility>

namespace amuse {

void InterestTable::rebuild(std::map<ServiceId, std::vector<Filter>> by_owner) {
  by_owner_ = std::move(by_owner);
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

InterestUpdate InterestTable::full_update(ServiceId link,
                                          const Digest256& held) {
  LinkState& state = links_[link];
  if (link != kCellView || state.version == 0) {
    state.pushed = export_for(link);
    ++state.version;
  }
  InterestUpdate u;
  u.version = state.version;
  u.digest = state.pushed.digest();
  u.confirm = digest_equal(u.digest, held);
  u.full = !u.confirm;
  if (u.full) u.added = state.pushed.filters();
  return u;
}

void InterestTable::drop_link(ServiceId link) { links_.erase(link); }

std::uint64_t InterestTable::link_version(ServiceId link) const {
  auto it = links_.find(link);
  return it == links_.end() ? 0 : it->second.version;
}

InterestMirror::Apply InterestMirror::apply(const InterestUpdate& update) {
  return StreamMirror::apply(update, [&](const FilterSet& held) {
    if (update.full) return std::optional<FilterSet>(FilterSet(update.added));
    std::optional<FilterSet> next(held);
    for (const Filter& f : update.removed) next->erase(f);
    for (const Filter& f : update.added) next->insert(f);
    return next;
  });
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
