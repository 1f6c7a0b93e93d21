#include "pubsub/event.hpp"

#include <algorithm>

namespace amuse {
namespace {

// Orders a stored attribute against a looked-up name.
struct NameLess {
  bool operator()(const std::pair<std::string, Value>& attr,
                  std::string_view name) const {
    return attr.first < name;
  }
};

}  // namespace

Event::Event(std::string type,
             std::initializer_list<std::pair<const std::string, Value>> attrs) {
  attrs_.reserve(attrs.size() + 1);
  // As a map built from the list: the first of duplicate names is kept.
  for (const auto& [name, value] : attrs) {
    if (!has(name)) set(name, value);
  }
  set("type", Value(std::move(type)));
}

Event& Event::set(std::string name, Value value) {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), name, NameLess{});
  if (it != attrs_.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    attrs_.emplace(it, std::move(name), std::move(value));
  }
  return *this;
}

bool Event::has(std::string_view name) const { return get(name) != nullptr; }

const Value* Event::get(std::string_view name) const {
  // A small event is scanned, comparing lengths first: most names differ
  // in length, so a miss costs one integer compare instead of a string
  // compare at each step of a binary search.
  if (attrs_.size() <= kLinearLookup) {
    for (const auto& [attr, value] : attrs_) {
      if (attr.size() == name.size() && attr == name) return &value;
    }
    return nullptr;
  }
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), name, NameLess{});
  return it != attrs_.end() && it->first == name ? &it->second : nullptr;
}

std::int64_t Event::get_int(std::string_view name, std::int64_t fallback) const {
  const Value* v = get(name);
  if (!v || v->type() != ValueType::kInt) return fallback;
  return v->as_int();
}

double Event::get_double(std::string_view name, double fallback) const {
  const Value* v = get(name);
  if (!v || !v->is_numeric()) return fallback;
  return v->as_double();
}

std::string Event::get_string(std::string_view name,
                              std::string fallback) const {
  const Value* v = get(name);
  if (!v || v->type() != ValueType::kString) return fallback;
  return v->as_string();
}

bool Event::operator==(const Event& other) const {
  if (attrs_.size() != other.attrs_.size()) return false;
  auto it = attrs_.begin();
  auto jt = other.attrs_.begin();
  for (; it != attrs_.end(); ++it, ++jt) {
    if (it->first != jt->first || !it->second.equals(jt->second)) return false;
  }
  return true;
}

std::size_t Event::payload_size() const {
  Writer w;
  encode(w);
  return w.size();
}

std::string Event::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : attrs_) {
    if (!first) out += ", ";
    first = false;
    out += name;
    out += "=";
    out += value.to_string();
  }
  out += "}";
  return out;
}

void Origin::encode(Writer& w) const {
  w.u48(cell.raw());
  w.u64(epoch);
  w.u64(seq);
}

Origin Origin::decode(Reader& r) {
  Origin o;
  o.cell = ServiceId(r.u48());
  o.epoch = r.u64();
  o.seq = r.u64();
  return o;
}

void Event::encode(Writer& w) const {
  w.u48(publisher_.raw());
  w.u64(publisher_seq_);
  w.i64(timestamp_.time_since_epoch().count());
  w.u16(static_cast<std::uint16_t>(attrs_.size()));
  for (const auto& [name, value] : attrs_) {
    w.str(name);
    value.encode(w);
  }
}

Event Event::decode(Reader& r) {
  Event e;
  e.publisher_ = ServiceId(r.u48());
  e.publisher_seq_ = r.u64();
  e.timestamp_ = TimePoint(Duration(r.i64()));
  std::uint16_t n = r.u16();
  // Every attribute takes at least 4 bytes (u16 name length, value tag,
  // one value byte), so a forged count cannot reserve more than the body
  // could hold.
  e.attrs_.reserve(std::min<std::size_t>(n, r.remaining() / 4));
  for (std::uint16_t i = 0; i < n; ++i) {
    std::string name = r.str();
    Value value = Value::decode(r);
    // Encoders write names in ascending order; anything else (a foreign or
    // hand-built body) takes the sorted insert, where the last duplicate
    // wins.
    if (e.attrs_.empty() || e.attrs_.back().first < name) {
      e.attrs_.emplace_back(std::move(name), std::move(value));
    } else {
      e.set(std::move(name), std::move(value));
    }
  }
  return e;
}

}  // namespace amuse
