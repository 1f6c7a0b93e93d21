#include "pubsub/fastforward_matcher.hpp"

#include <algorithm>
#include <cmath>

namespace amuse {
namespace {

// NaN equals nothing and has no place in a sorted bound array, so a NaN
// constraint is never a key; it is still evaluated with its filter.
bool numeric_key(const Value& v) {
  return v.is_numeric() && !std::isnan(v.as_double());
}

bool is_range(Op op) {
  return op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe;
}

}  // namespace

void FastForwardMatcher::add(SubId id, const Filter& filter) {
  remove(id);  // re-adding replaces the filter
  Sub& sub = subs_[id];
  sub.id = id;
  sub.filter = filter;
  file(sub);
}

void FastForwardMatcher::remove(SubId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  unfile(it->second);
  subs_.erase(it);
}

const FastForwardMatcher::Bucket* FastForwardMatcher::find_bucket(
    Access access, const Constraint& c) const {
  auto ait = attrs_.find(c.attribute);
  if (ait == attrs_.end()) return nullptr;
  const AttrIndex& ai = ait->second;
  if (access == Access::kEqNum) {
    auto it = ai.eq_num.find(c.value.as_double());
    return it == ai.eq_num.end() ? nullptr : &it->second;
  }
  const std::string& s = c.value.as_string();
  const StringBuckets* buckets = &ai.eq_str;
  if (access == Access::kPrefix) {
    auto level = std::ranges::find(ai.prefixes, s.size(), &PrefixLevel::length);
    if (level == ai.prefixes.end()) return nullptr;
    buckets = &level->buckets;
  }
  auto it = buckets->find(s);
  return it == buckets->end() ? nullptr : &it->second;
}

void FastForwardMatcher::file(Sub& sub) {
  auto push = [&sub](Bucket& bucket) {
    sub.pos = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(&sub);
  };
  const std::vector<Constraint>& cs = sub.filter.constraints();
  if (cs.empty()) {
    sub.access = Access::kAll;
    push(all_);
    return;
  }

  // First choice: the equality or prefix constraint with the smallest
  // bucket (the first one on a tie).
  bool keyed = false;
  std::size_t best = 0;
  for (std::uint32_t i = 0; i < cs.size(); ++i) {
    const Constraint& c = cs[i];
    bool text = c.value.type() == ValueType::kString;
    Access access = Access::kScan;  // not a hash key
    if (c.op == Op::kEq && numeric_key(c.value)) access = Access::kEqNum;
    if (c.op == Op::kEq && text) access = Access::kEqStr;
    if (c.op == Op::kPrefix && text) access = Access::kPrefix;
    if (access == Access::kScan) continue;
    const Bucket* bucket = find_bucket(access, c);
    std::size_t n = bucket ? bucket->size() : 0;
    if (!keyed || n < best) {
      keyed = true;
      best = n;
      sub.access = access;
      sub.key = i;
      if (n == 0) break;
    }
  }
  // Else a numeric range bound; else the first attribute's scan list.
  if (!keyed) {
    auto range = std::ranges::find_if(cs, [](const Constraint& c) {
      return is_range(c.op) && numeric_key(c.value);
    });
    sub.access = range == cs.end() ? Access::kScan : Access::kRange;
    sub.key = range == cs.end()
                  ? 0
                  : static_cast<std::uint32_t>(range - cs.begin());
  }

  const Constraint& c = cs[sub.key];
  AttrIndex& ai = attrs_[c.attribute];
  ++ai.keyed;
  switch (sub.access) {
    case Access::kEqNum:
      push(ai.eq_num[c.value.as_double()]);
      break;
    case Access::kEqStr:
      push(ai.eq_str[c.value.as_string()]);
      break;
    case Access::kPrefix: {
      std::size_t length = c.value.as_string().size();
      auto level = std::ranges::lower_bound(ai.prefixes, length, {},
                                            &PrefixLevel::length);
      if (level == ai.prefixes.end() || level->length != length) {
        level = ai.prefixes.insert(level, PrefixLevel{length, {}});
      }
      push(level->buckets[c.value.as_string()]);
      break;
    }
    case Access::kRange: {
      std::vector<Bound>& bounds = range_array(ai, c.op);
      double b = c.value.as_double();
      auto at = std::ranges::upper_bound(bounds, b, {}, &Bound::bound);
      bounds.insert(at, Bound{b, &sub});
      break;
    }
    default:
      push(ai.scan);
      break;
  }
}

void FastForwardMatcher::unfile(const Sub& sub) {
  // Swap-with-last keeps every bucket dense; returns true once it is empty.
  auto pop = [&sub](Bucket& bucket) {
    bucket[sub.pos] = bucket.back();
    bucket[sub.pos]->pos = sub.pos;
    bucket.pop_back();
    return bucket.empty();
  };
  // Pops from the keyed bucket, dropping it once empty; true when the
  // whole map is empty.
  auto pop_keyed = [&pop](auto& buckets, const auto& key) {
    auto it = buckets.find(key);
    if (pop(it->second)) buckets.erase(it);
    return buckets.empty();
  };
  if (sub.access == Access::kAll) {
    pop(all_);
    return;
  }

  const Constraint& c = sub.filter.constraints()[sub.key];
  auto ait = attrs_.find(c.attribute);
  AttrIndex& ai = ait->second;
  switch (sub.access) {
    case Access::kEqNum:
      pop_keyed(ai.eq_num, c.value.as_double());
      break;
    case Access::kEqStr:
      pop_keyed(ai.eq_str, c.value.as_string());
      break;
    case Access::kPrefix: {
      const std::string& prefix = c.value.as_string();
      auto level =
          std::ranges::find(ai.prefixes, prefix.size(), &PrefixLevel::length);
      if (pop_keyed(level->buckets, prefix)) ai.prefixes.erase(level);
      break;
    }
    case Access::kRange: {
      std::vector<Bound>& bounds = range_array(ai, c.op);
      auto [lo, hi] = std::ranges::equal_range(bounds, c.value.as_double(),
                                               {}, &Bound::bound);
      bounds.erase(std::ranges::find(lo, hi, &sub, &Bound::sub));
      break;
    }
    default:
      pop(ai.scan);
      break;
  }
  if (--ai.keyed == 0) attrs_.erase(ait);
}

std::vector<FastForwardMatcher::Bound>& FastForwardMatcher::range_array(
    AttrIndex& ai, Op op) {
  switch (op) {
    case Op::kLt: return ai.lt;
    case Op::kLe: return ai.le;
    case Op::kGt: return ai.gt;
    default: return ai.ge;
  }
}

void FastForwardMatcher::match(const Event& e, std::vector<SubId>& out) const {
  // Reached through its key, so only the other constraints need testing.
  auto visit = [&](const Sub* sub) {
    const std::vector<Constraint>& cs = sub->filter.constraints();
    for (std::uint32_t i = 0; i < cs.size(); ++i) {
      if (i == sub->key) continue;
      const Value* v = e.get(cs[i].attribute);
      if (!v || !cs[i].matches(*v)) return;
    }
    out.push_back(sub->id);
  };
  auto visit_bucket = [&](const Bucket& bucket) {
    for (const Sub* sub : bucket) visit(sub);
  };
  auto visit_bounds = [&](auto first, auto last) {
    for (; first != last; ++first) visit(first->sub);
  };

  for (const auto& [name, value] : e.attributes()) {
    auto ait = attrs_.find(name);
    if (ait == attrs_.end()) continue;
    const AttrIndex& ai = ait->second;

    if (value.is_numeric()) {
      double v = value.as_double();
      if (auto it = ai.eq_num.find(v); it != ai.eq_num.end()) {
        visit_bucket(it->second);
      }
      // v < bound ⇔ bound > v: the suffix after upper_bound(v).
      visit_bounds(std::ranges::upper_bound(ai.lt, v, {}, &Bound::bound),
                   ai.lt.end());
      // v <= bound ⇔ bound >= v: the suffix from lower_bound(v).
      visit_bounds(std::ranges::lower_bound(ai.le, v, {}, &Bound::bound),
                   ai.le.end());
      // v > bound ⇔ bound < v: the prefix before lower_bound(v).
      visit_bounds(ai.gt.begin(),
                   std::ranges::lower_bound(ai.gt, v, {}, &Bound::bound));
      // v >= bound ⇔ bound <= v: the prefix before upper_bound(v).
      visit_bounds(ai.ge.begin(),
                   std::ranges::upper_bound(ai.ge, v, {}, &Bound::bound));
    } else if (value.type() == ValueType::kString) {
      const std::string& s = value.as_string();
      if (auto it = ai.eq_str.find(s); it != ai.eq_str.end()) {
        visit_bucket(it->second);
      }
      for (const PrefixLevel& level : ai.prefixes) {
        if (level.length > s.size()) break;
        std::string_view head = std::string_view(s).substr(0, level.length);
        auto it = level.buckets.find(head);
        if (it != level.buckets.end()) visit_bucket(it->second);
      }
    }
    // The scan key only says the attribute is present: test everything.
    for (const Sub* sub : ai.scan) {
      if (sub->filter.matches(e)) out.push_back(sub->id);
    }
  }

  for (const Sub* sub : all_) out.push_back(sub->id);
}

}  // namespace amuse
