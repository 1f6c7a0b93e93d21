#include "pubsub/value.hpp"

#include <cmath>
#include <cstdio>

namespace amuse {

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kBool: return "bool";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
  }
  return "?";
}

bool Value::equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    return as_double() == other.as_double();
  }
  return v_ == other.v_;
}

int Value::compare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = as_double();
    double b = other.as_double();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  if (v_ < other.v_) return -1;
  if (other.v_ < v_) return 1;
  return 0;
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::kInt:
      return "int:" + std::to_string(as_int());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "double:%.17g", std::get<double>(v_));
      return buf;
    }
    case ValueType::kBool:
      return as_bool() ? "bool:true" : "bool:false";
    case ValueType::kString:
      return "str:\"" + as_string() + "\"";
    case ValueType::kBytes:
      return "bytes:" + std::to_string(as_bytes().size()) + ":" +
             to_hex(as_bytes());
  }
  return "?";
}

void Value::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type()));
  switch (type()) {
    case ValueType::kInt:
      w.i64(as_int());
      break;
    case ValueType::kDouble:
      w.f64(std::get<double>(v_));
      break;
    case ValueType::kBool:
      w.boolean(as_bool());
      break;
    case ValueType::kString:
      w.str(as_string());
      break;
    case ValueType::kBytes:
      w.blob32(as_bytes());
      break;
  }
}

Value Value::decode(Reader& r) {
  auto tag = static_cast<ValueType>(r.u8());
  switch (tag) {
    case ValueType::kInt:
      return Value(r.i64());
    case ValueType::kDouble:
      return Value(r.f64());
    case ValueType::kBool:
      return Value(r.boolean());
    case ValueType::kString:
      return Value(r.str());
    case ValueType::kBytes:
      return Value(r.blob32());
  }
  throw DecodeError("unknown value type tag " +
                    std::to_string(static_cast<int>(tag)));
}

}  // namespace amuse
