#include "pubsub/filter.hpp"

#include <algorithm>

namespace amuse {

const char* to_string(Op op) {
  switch (op) {
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kPrefix: return "=^";
    case Op::kSuffix: return "=$";
    case Op::kContains: return "=~";
    case Op::kExists: return "exists";
  }
  return "?";
}

namespace {

/// Values are order-comparable when both are numeric or both share a type.
bool comparable(ValueView a, ValueView b) {
  return (a.is_numeric() && b.is_numeric()) || a.type() == b.type();
}

bool both_strings(ValueView a, ValueView b) {
  return a.type() == ValueType::kString && b.type() == ValueType::kString;
}

}  // namespace

bool Constraint::matches(ValueView v) const { return satisfies(v, op, value); }

bool satisfies(ValueView v, Op op, ValueView value) {
  switch (op) {
    case Op::kExists:
      return true;
    case Op::kEq:
      return v.equals(value);
    case Op::kNe:
      return comparable(v, value) && !v.equals(value);
    case Op::kLt:
      return comparable(v, value) && v.compare(value) < 0;
    case Op::kLe:
      return comparable(v, value) && v.compare(value) <= 0;
    case Op::kGt:
      return comparable(v, value) && v.compare(value) > 0;
    case Op::kGe:
      return comparable(v, value) && v.compare(value) >= 0;
    case Op::kPrefix:
      return both_strings(v, value) &&
             v.as_string().starts_with(value.as_string());
    case Op::kSuffix:
      return both_strings(v, value) &&
             v.as_string().ends_with(value.as_string());
    case Op::kContains:
      return both_strings(v, value) &&
             v.as_string().find(value.as_string()) != std::string_view::npos;
  }
  return false;
}

bool Constraint::implies(const Constraint& weaker) const {
  if (attribute != weaker.attribute) return false;
  if (weaker.op == Op::kExists) return true;
  // An equality constraint pins the value: test it directly.
  if (op == Op::kEq) return weaker.matches(value);

  const Constraint& s = *this;
  const Constraint& w = weaker;
  // Order-operator algebra needs comparable bounds.
  auto cmp_ok = [&] { return comparable(s.value, w.value); };
  auto cmp = [&] { return s.value.compare(w.value); };

  switch (s.op) {
    case Op::kLt:
      if (!cmp_ok()) return false;
      if (w.op == Op::kLt || w.op == Op::kLe) return cmp() <= 0;
      if (w.op == Op::kNe) return cmp() <= 0;  // v < a, c >= a ⇒ v != c
      return false;
    case Op::kLe:
      if (!cmp_ok()) return false;
      if (w.op == Op::kLe) return cmp() <= 0;
      if (w.op == Op::kLt) return cmp() < 0;
      if (w.op == Op::kNe) return cmp() < 0;  // v <= a, c > a ⇒ v != c
      return false;
    case Op::kGt:
      if (!cmp_ok()) return false;
      if (w.op == Op::kGt || w.op == Op::kGe) return cmp() >= 0;
      if (w.op == Op::kNe) return cmp() >= 0;
      return false;
    case Op::kGe:
      if (!cmp_ok()) return false;
      if (w.op == Op::kGe) return cmp() >= 0;
      if (w.op == Op::kGt) return cmp() > 0;
      if (w.op == Op::kNe) return cmp() > 0;
      return false;
    case Op::kNe:
      return w.op == Op::kNe && s.value.equals(w.value);
    case Op::kPrefix:
      if (!both_strings(s.value, w.value)) return false;
      if (w.op == Op::kPrefix) return s.value.as_string().starts_with(w.value.as_string());
      if (w.op == Op::kContains)
        return s.value.as_string().find(w.value.as_string()) !=
               std::string::npos;
      if (w.op == Op::kGe) return s.value.compare(w.value) >= 0;
      return false;
    case Op::kSuffix:
      if (!both_strings(s.value, w.value)) return false;
      if (w.op == Op::kSuffix) return s.value.as_string().ends_with(w.value.as_string());
      if (w.op == Op::kContains)
        return s.value.as_string().find(w.value.as_string()) !=
               std::string::npos;
      return false;
    case Op::kContains:
      if (!both_strings(s.value, w.value)) return false;
      return w.op == Op::kContains &&
             s.value.as_string().find(w.value.as_string()) !=
                 std::string::npos;
    case Op::kExists:
    case Op::kEq:
      return false;  // kEq handled above; kExists implies only kExists
  }
  return false;
}

bool Constraint::operator==(const Constraint& other) const {
  return attribute == other.attribute && op == other.op &&
         value.equals(other.value);
}

std::string Constraint::to_string() const {
  if (op == Op::kExists) return attribute + " exists";
  return attribute + " " + amuse::to_string(op) + " " + value.to_string();
}

void Constraint::encode(Writer& w) const {
  w.str(attribute);
  w.u8(static_cast<std::uint8_t>(op));
  value.encode(w);
}

Constraint Constraint::decode(Reader& r) {
  Constraint c;
  c.attribute = r.str();
  auto raw = r.u8();
  if (raw < 1 || raw > 10) {
    throw DecodeError("bad constraint op " + std::to_string(raw));
  }
  c.op = static_cast<Op>(raw);
  c.value = Value::decode(r);
  return c;
}

Filter& Filter::where(std::string attribute, Op op, Value value) {
  constraints_.push_back(Constraint{std::move(attribute), op, std::move(value)});
  return *this;
}

Filter Filter::for_type(std::string type) {
  Filter f;
  f.where("type", Op::kEq, Value(std::move(type)));
  return f;
}

Filter Filter::for_type_prefix(std::string prefix) {
  Filter f;
  f.where("type", Op::kPrefix, Value(std::move(prefix)));
  return f;
}

bool Filter::matches(const Event& e) const {
  for (const Constraint& c : constraints_) {
    std::optional<ValueView> v = e.get(c.attribute);
    if (!v || !c.matches(*v)) return false;
  }
  return true;
}

bool Filter::operator==(const Filter& other) const {
  return constraints_ == other.constraints_;
}

std::string Filter::to_string() const {
  if (constraints_.empty()) return "(any)";
  std::string out;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) out += " && ";
    out += constraints_[i].to_string();
  }
  return out;
}

void Filter::encode(Writer& w) const {
  w.u16(static_cast<std::uint16_t>(constraints_.size()));
  for (const Constraint& c : constraints_) c.encode(w);
}

std::size_t Filter::encoded_size() const {
  std::size_t n = 2;
  for (const Constraint& c : constraints_) {
    n += 2 + c.attribute.size() + 1 + ValueView(c.value).encoded_size();
  }
  return n;
}

Filter Filter::decode(Reader& r) {
  // The smallest constraint: an empty attribute (u16 length), the op and
  // a bool value (tag and byte). A count the remaining bytes cannot hold
  // fails below; reserving by it must not allocate first.
  constexpr std::size_t kMinConstraintBytes = 2 + 1 + 2;
  Filter f;
  std::uint16_t n = r.u16();
  f.constraints_.reserve(
      std::min<std::size_t>(n, r.remaining() / kMinConstraintBytes));
  for (std::uint16_t i = 0; i < n; ++i) {
    f.constraints_.push_back(Constraint::decode(r));
  }
  return f;
}

bool covers(const Filter& general, const Filter& specific) {
  return std::ranges::all_of(
      general.constraints(), [&](const Constraint& cg) {
        return std::ranges::any_of(
            specific.constraints(),
            [&](const Constraint& cs) { return cs.implies(cg); });
      });
}

}  // namespace amuse
