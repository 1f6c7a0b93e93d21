#include "pubsub/fastforward_matcher.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace amuse {
namespace {

bool is_range(Op op) {
  return op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe;
}

// The order operators as Value::compare resolves them, as a mask over the
// order outcome: compare() is -1 only for x < c and 1 only for x > c, so an
// unordered pair (a NaN) satisfies <=, >= and != but neither <, > nor ==.
std::uint8_t order_mask(Op op) {
  switch (op) {
    case Op::kEq: return 0b1000;
    case Op::kNe: return 0b0111;
    case Op::kLt: return 0b0010;
    case Op::kLe: return 0b1011;
    case Op::kGt: return 0b0100;
    case Op::kGe: return 0b1101;
    default: return 0;  // string operators on a non-string constant
  }
}

/// 0 unordered, 1 less, 2 greater, 3 equal.
int order(double x, double c) {
  return static_cast<int>(x < c) | static_cast<int>(c < x) << 1 |
         static_cast<int>(x == c) * 3;
}

int order(std::string_view x, std::string_view c) {
  int cmp = x.compare(c);
  return cmp < 0 ? 1 : cmp > 0 ? 2 : 3;
}

std::string_view as_chars(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

void FastForwardMatcher::Entry::push(const Test& t) {
  if (size < head.size()) {
    head[size] = t;
  } else {
    rest.push_back(t);
  }
  ++size;
}

template <typename F>
bool FastForwardMatcher::Entry::all_of(F&& f) const {
  std::uint32_t inline_n = std::min<std::uint32_t>(size, head.size());
  for (std::uint32_t i = 0; i < inline_n; ++i) {
    if (!f(head[i])) return false;
  }
  for (const Test& t : rest) {
    if (!f(t)) return false;
  }
  return true;
}

FastForwardMatcher::Test FastForwardMatcher::compile(const Constraint& c) {
  auto [it, fresh] = attrs_.try_emplace(c.attribute);
  AttrIndex& ai = it->second;
  if (fresh) {
    if (free_slots_.empty()) {
      ai.slot = static_cast<std::uint32_t>(by_slot_.size());
      by_slot_.push_back(&*it);
      bound_.emplace_back();
    } else {
      ai.slot = free_slots_.back();
      free_slots_.pop_back();
      by_slot_[ai.slot] = &*it;
    }
  }
  ++ai.refs;

  Test t;
  t.slot = ai.slot;
  t.op = c.op;
  if (c.op == Op::kExists) return t;
  t.mask = order_mask(c.op);
  t.eval = Test::Eval::kNumOrder;
  std::string_view text;
  switch (c.value.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      t.family = Family::kNum;
      t.num = c.value.as_double();
      return t;
    case ValueType::kBool:
      t.family = Family::kBool;
      t.num = c.value.as_bool() ? 1.0 : 0.0;
      return t;
    case ValueType::kString:
      t.family = Family::kStr;
      text = c.value.as_string();
      switch (c.op) {
        case Op::kEq:
        case Op::kNe:
          t.eval = Test::Eval::kStrId;
          ++ai.by_id;
          break;
        case Op::kPrefix: t.eval = Test::Eval::kPrefix; break;
        case Op::kSuffix: t.eval = Test::Eval::kSuffix; break;
        case Op::kContains: t.eval = Test::Eval::kContains; break;
        default: t.eval = Test::Eval::kStrOrder; break;
      }
      break;
    case ValueType::kBytes:
      t.family = Family::kBytes;
      t.eval = Test::Eval::kBytesOrder;
      text = as_chars(c.value.as_bytes());
      break;
  }
  // Most constants are already interned: look them up by view first.
  auto sit = strings_.find(text);
  bool added = sit == strings_.end();
  if (added) sit = strings_.try_emplace(std::string(text)).first;
  Interned& in = sit->second;
  if (added) {
    if (free_ids_.empty()) {
      in.id = static_cast<std::uint32_t>(by_id_.size());
      by_id_.push_back(&sit->first);
    } else {
      in.id = free_ids_.back();
      free_ids_.pop_back();
      by_id_[in.id] = &sit->first;
    }
  }
  ++in.refs;
  t.sid = in.id;
  return t;
}

void FastForwardMatcher::release(const Test& t) {
  AttrEntry* entry = by_slot_[t.slot];
  if (t.family == Family::kStr || t.family == Family::kBytes) {
    if (t.eval == Test::Eval::kStrId) --entry->second.by_id;
    auto sit = strings_.find(text(t));
    if (--sit->second.refs == 0) {
      by_id_[t.sid] = nullptr;
      free_ids_.push_back(t.sid);
      strings_.erase(sit);
    }
  }
  if (--entry->second.refs > 0) return;
  by_slot_[t.slot] = nullptr;
  free_slots_.push_back(t.slot);
  attrs_.erase(attrs_.find(entry->first));
}

bool FastForwardMatcher::passes(const Test& t, const Binding& b) const {
  if (t.eval == Test::Eval::kExists) return true;
  if (b.family != t.family) return false;
  int r = 0;
  switch (t.eval) {
    case Test::Eval::kNumOrder:
      r = order(b.num, t.num);
      break;
    case Test::Eval::kStrId:
      // One intern table: equal ids, equal text.
      r = b.sid == t.sid ? 3 : 1;
      break;
    case Test::Eval::kStrOrder:
    case Test::Eval::kBytesOrder:
      // char_traits<char> compares as unsigned char, as Bytes does.
      r = order(b.text, text(t));
      break;
    case Test::Eval::kPrefix:
      return b.text.starts_with(text(t));
    case Test::Eval::kSuffix:
      return b.text.ends_with(text(t));
    case Test::Eval::kContains:
      return b.text.find(text(t)) != std::string_view::npos;
    case Test::Eval::kExists:
      break;
  }
  return ((t.mask >> r) & 1) != 0;
}

FastForwardMatcher::Load FastForwardMatcher::load(Access access,
                                                   const Test& t) {
  // Keys held at the access: a fresh bucket counts as one (its load is 0).
  auto of = [](auto& buckets, const auto& key) {
    Load out;
    out.keys = std::max<std::size_t>(1, buckets.size());
    if (auto it = buckets.find(key); it != buckets.end()) {
      out.bucket = &it->second;
      out.n = it->second.size();
    }
    return out;
  };
  AttrIndex& ai = index_of(t);
  if (access == Access::kEqNum) return of(ai.eq_num, t.num);
  if (access == Access::kEqStr) return of(ai.eq_str, t.sid);
  const std::string& prefix = text(t);
  auto level =
      std::ranges::find(ai.prefixes, prefix.size(), &PrefixLevel::length);
  if (level == ai.prefixes.end()) return {};
  return of(level->buckets, prefix);
}

FastForwardMatcher::Bucket& FastForwardMatcher::bucket_for(Access access,
                                                           const Test& key) {
  if (access == Access::kAll) return all_;
  AttrIndex& ai = index_of(key);
  switch (access) {
    case Access::kEqNum:
      return ai.eq_num[key.num];
    case Access::kEqStr:
      return ai.eq_str[key.sid];
    case Access::kPrefix: {
      const std::string& prefix = text(key);
      auto level = std::ranges::lower_bound(ai.prefixes, prefix.size(), {},
                                            &PrefixLevel::length);
      if (level == ai.prefixes.end() || level->length != prefix.size()) {
        level = ai.prefixes.insert(level, PrefixLevel{prefix.size(), {}});
      }
      return level->buckets[prefix];
    }
    default:
      return ai.scan;
  }
}

void FastForwardMatcher::add(SubId id, const Filter& filter) {
  remove(id);  // re-adding replaces the filter
  std::vector<Test>& tests = tests_;
  tests.clear();
  for (const Constraint& c : filter.constraints()) {
    tests.push_back(compile(c));
  }

  Filed filed;
  filed.live = true;
  std::size_t key = tests.size();
  // The chosen key's bucket when it already exists: filed without a
  // second lookup.
  Bucket* home = nullptr;
  if (!tests.empty()) {
    // First choice: the equality or prefix test with the fewest expected
    // visits, bucket size ÷ distinct keys (the first one on a tie).
    std::size_t best_n = 0;
    std::size_t best_k = 1;
    for (std::size_t i = 0; i < tests.size(); ++i) {
      const Test& t = tests[i];
      Access access = Access::kScan;  // not a hash key
      if (t.op == Op::kEq && t.family == Family::kNum && !std::isnan(t.num)) {
        access = Access::kEqNum;
      }
      if (t.op == Op::kEq && t.family == Family::kStr) {
        access = Access::kEqStr;
      }
      if (t.eval == Test::Eval::kPrefix) access = Access::kPrefix;
      if (access == Access::kScan) continue;
      Load l = load(access, t);
      if (key == tests.size() || l.n * best_k < best_n * l.keys) {
        key = i;
        best_n = l.n;
        best_k = l.keys;
        home = l.bucket;
        filed.access = access;
        if (l.n == 0) break;
      }
    }
    // Else a numeric range bound (NaN has no place in a sorted array);
    // else the first attribute's scan list.
    if (key == tests.size()) {
      auto range = std::ranges::find_if(tests, [](const Test& t) {
        return is_range(t.op) && t.family == Family::kNum &&
               !std::isnan(t.num);
      });
      filed.access = range == tests.end() ? Access::kScan : Access::kRange;
      key = range == tests.end()
                ? 0
                : static_cast<std::size_t>(range - tests.begin());
    }
    filed.key = tests[key];
    ++index_of(filed.key).keyed;
  }

  // A keyed visit already satisfies the key; a scan visit does not.
  Entry entry;
  entry.id = id;
  for (std::size_t i = 0; i < tests.size(); ++i) {
    if (i != key || filed.access == Access::kScan) entry.push(tests[i]);
  }
  if (filed.access == Access::kRange) {
    std::vector<Ranged>& bounds = range_array(index_of(filed.key), filed.key.op);
    auto at = std::ranges::upper_bound(bounds, filed.key.num, {},
                                       &Ranged::bound);
    bounds.insert(at, Ranged{filed.key.num, std::move(entry)});
  } else {
    Bucket& bucket = home ? *home : bucket_for(filed.access, filed.key);
    filed.pos = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(std::move(entry));
  }
  if (id >= subs_.size()) subs_.resize(id + 1);
  subs_[id] = filed;
  ++live_;
}

FastForwardMatcher::Entry FastForwardMatcher::unfile(SubId id,
                                                     const Filed& filed) {
  // Swap-with-last keeps every bucket dense; the moved entry learns its
  // new position.
  auto pop = [this, &filed](Bucket& bucket) {
    Entry out = std::move(bucket[filed.pos]);
    if (filed.pos + 1 != bucket.size()) {
      bucket[filed.pos] = std::move(bucket.back());
      subs_[bucket[filed.pos].id].pos = filed.pos;
    }
    bucket.pop_back();
    return out;
  };
  // Pops from the keyed bucket, dropping it once empty.
  auto pop_keyed = [&pop](auto& buckets, const auto& key) {
    auto it = buckets.find(key);
    Entry out = pop(it->second);
    if (it->second.empty()) buckets.erase(it);
    return out;
  };
  if (filed.access == Access::kAll) return pop(all_);

  const Test& key = filed.key;
  AttrIndex& ai = index_of(key);
  --ai.keyed;
  switch (filed.access) {
    case Access::kEqNum:
      return pop_keyed(ai.eq_num, key.num);
    case Access::kEqStr:
      return pop_keyed(ai.eq_str, key.sid);
    case Access::kPrefix: {
      const std::string& prefix = text(key);
      auto level =
          std::ranges::find(ai.prefixes, prefix.size(), &PrefixLevel::length);
      Entry out = pop_keyed(level->buckets, prefix);
      if (level->buckets.empty()) ai.prefixes.erase(level);
      return out;
    }
    case Access::kRange: {
      std::vector<Ranged>& bounds = range_array(ai, key.op);
      auto [lo, hi] =
          std::ranges::equal_range(bounds, key.num, {}, &Ranged::bound);
      auto at = std::ranges::find_if(
          lo, hi, [id](const Ranged& r) { return r.entry.id == id; });
      Entry out = std::move(at->entry);
      bounds.erase(at);
      return out;
    }
    default:
      return pop(ai.scan);
  }
}

void FastForwardMatcher::remove(SubId id) {
  if (id >= subs_.size() || !subs_[id].live) return;
  const Filed filed = subs_[id];
  Entry entry = unfile(id, filed);
  subs_[id].live = false;
  --live_;
  // A scan entry carries its key among its tests; every other entry's key
  // lives only in `filed`.
  entry.all_of([this](const Test& t) {
    release(t);
    return true;
  });
  if (filed.access != Access::kAll && filed.access != Access::kScan) {
    release(filed.key);
  }
}

std::vector<FastForwardMatcher::Ranged>& FastForwardMatcher::range_array(
    AttrIndex& ai, Op op) {
  switch (op) {
    case Op::kLt: return ai.lt;
    case Op::kLe: return ai.le;
    case Op::kGt: return ai.gt;
    default: return ai.ge;
  }
}

void FastForwardMatcher::match(const Event& e, std::vector<SubId>& out) const {
  // Bind every event attribute some test names to its slot, once: its
  // numeric value and, where a string == or != test needs it, the id of
  // its string.
  present_.clear();
  for (const auto& [name, value] : e.attributes()) {
    auto ait = attrs_.find(name);
    if (ait == attrs_.end()) continue;
    const AttrIndex& ai = ait->second;
    Binding& b = bound_[ai.slot];
    b.present = true;
    b.sid = 0;
    switch (value.type()) {
      case ValueType::kInt:
      case ValueType::kDouble:
        b.family = Family::kNum;
        b.num = value.as_double();
        break;
      case ValueType::kBool:
        b.family = Family::kBool;
        b.num = value.as_bool() ? 1.0 : 0.0;
        break;
      case ValueType::kString:
        b.family = Family::kStr;
        b.text = value.as_string();
        if (ai.by_id > 0) {
          auto sit = strings_.find(b.text);
          if (sit != strings_.end()) b.sid = sit->second.id;
        }
        break;
      case ValueType::kBytes:
        b.family = Family::kBytes;
        b.text = as_chars(value.as_bytes());
        break;
    }
    present_.push_back(&ai);
  }

  auto visit = [&](const Entry& entry) {
    bool all = entry.all_of([&](const Test& t) {
      const Binding& b = bound_[t.slot];
      return b.present && passes(t, b);
    });
    if (all) out.push_back(entry.id);
  };
  auto visit_bucket = [&](const Bucket& bucket) {
    for (const Entry& entry : bucket) visit(entry);
  };
  auto visit_bounds = [&](auto first, auto last) {
    for (; first != last; ++first) visit(first->entry);
  };

  for (const AttrIndex* index : present_) {
    const AttrIndex& ai = *index;
    if (ai.keyed == 0) continue;
    const Binding& b = bound_[ai.slot];
    if (b.family == Family::kNum) {
      double v = b.num;
      if (auto it = ai.eq_num.find(v); it != ai.eq_num.end()) {
        visit_bucket(it->second);
      }
      // v < bound ⇔ bound > v: the suffix after upper_bound(v).
      visit_bounds(std::ranges::upper_bound(ai.lt, v, {}, &Ranged::bound),
                   ai.lt.end());
      // v <= bound ⇔ bound >= v: the suffix from lower_bound(v).
      visit_bounds(std::ranges::lower_bound(ai.le, v, {}, &Ranged::bound),
                   ai.le.end());
      // v > bound ⇔ bound < v: the prefix before lower_bound(v).
      visit_bounds(ai.gt.begin(),
                   std::ranges::lower_bound(ai.gt, v, {}, &Ranged::bound));
      // v >= bound ⇔ bound <= v: the prefix before upper_bound(v).
      visit_bounds(ai.ge.begin(),
                   std::ranges::upper_bound(ai.ge, v, {}, &Ranged::bound));
    } else if (b.family == Family::kStr) {
      if (b.sid != 0) {
        if (auto it = ai.eq_str.find(b.sid); it != ai.eq_str.end()) {
          visit_bucket(it->second);
        }
      }
      const std::string_view s = b.text;
      for (const PrefixLevel& level : ai.prefixes) {
        if (level.length > s.size()) break;
        std::string_view head = s.substr(0, level.length);
        auto it = level.buckets.find(head);
        if (it != level.buckets.end()) visit_bucket(it->second);
      }
    }
    visit_bucket(ai.scan);
  }

  for (const Entry& entry : all_) out.push_back(entry.id);
  for (const AttrIndex* index : present_) bound_[index->slot].present = false;
}

}  // namespace amuse
