#include "pubsub/event.hpp"

namespace amuse {

Event::Event(std::string type,
             std::initializer_list<std::pair<const std::string, Value>> attrs)
    : attrs_(attrs) {
  attrs_.insert_or_assign("type", Value(std::move(type)));
}

Event& Event::set(std::string name, Value value) {
  attrs_.insert_or_assign(std::move(name), std::move(value));
  return *this;
}

bool Event::has(std::string_view name) const {
  return attrs_.find(name) != attrs_.end();
}

const Value* Event::get(std::string_view name) const {
  auto it = attrs_.find(name);
  return it == attrs_.end() ? nullptr : &it->second;
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
  for (std::uint16_t i = 0; i < n; ++i) {
    std::string name = r.str();
    e.attrs_.insert_or_assign(std::move(name), Value::decode(r));
  }
  return e;
}

}  // namespace amuse
