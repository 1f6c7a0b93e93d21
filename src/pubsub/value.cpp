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

ValueView::ValueView(const Value& v)
    : type_(v.type()) {
  switch (type_) {
    case ValueType::kInt: num_.i = std::get<std::int64_t>(v.v_); break;
    case ValueType::kDouble: num_.d = std::get<double>(v.v_); break;
    case ValueType::kBool: num_.b = std::get<bool>(v.v_); break;
    case ValueType::kString: {
      const std::string& str = std::get<std::string>(v.v_);
      text_ = str.data();
      len_ = str.size();
      break;
    }
    case ValueType::kBytes: {
      const Bytes& bytes = std::get<Bytes>(v.v_);
      text_ = reinterpret_cast<const char*>(bytes.data());
      len_ = bytes.size();
      break;
    }
  }
}

Value::Value(ValueView v) {
  switch (v.type()) {
    case ValueType::kInt: v_ = v.as_int(); break;
    case ValueType::kDouble: v_ = v.as_double(); break;
    case ValueType::kBool: v_ = v.as_bool(); break;
    case ValueType::kString: v_ = std::string(v.as_string()); break;
    case ValueType::kBytes:
      v_ = Bytes(v.as_bytes().begin(), v.as_bytes().end());
      break;
  }
}

bool ValueView::equals(ValueView other) const {
  if (is_numeric() && other.is_numeric()) {
    return as_double() == other.as_double();
  }
  if (type_ != other.type_) return false;
  if (type_ == ValueType::kBool) return num_.b == other.num_.b;
  return as_string() == other.as_string();
}

int ValueView::compare(ValueView other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = as_double();
    double b = other.as_double();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  if (type_ == ValueType::kBool) {
    return static_cast<int>(num_.b) - static_cast<int>(other.num_.b);
  }
  // char_traits<char> compares as unsigned char, as Bytes does.
  int cmp = as_string().compare(other.as_string());
  return cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
}

std::string ValueView::to_string() const {
  switch (type_) {
    case ValueType::kInt:
      return "int:" + std::to_string(as_int());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "double:%.17g", num_.d);
      return buf;
    }
    case ValueType::kBool:
      return as_bool() ? "bool:true" : "bool:false";
    case ValueType::kString:
      return "str:\"" + std::string(as_string()) + "\"";
    case ValueType::kBytes:
      return "bytes:" + std::to_string(len_) + ":" + to_hex(as_bytes());
  }
  return "?";
}

void ValueView::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type_));
  switch (type_) {
    case ValueType::kInt:
      w.i64(as_int());
      break;
    case ValueType::kDouble:
      w.f64(num_.d);
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

std::size_t ValueView::encoded_size() const {
  switch (type_) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kBool:
      return 1 + 1;
    case ValueType::kString:
      return 1 + 2 + len_;
    case ValueType::kBytes:
      return 1 + 4 + len_;
  }
  return 1;
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
