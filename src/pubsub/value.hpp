// Typed attribute values for content-based events and filters.
//
// The prototype's events are attribute sets in the Siena style: named,
// typed values. We support the types the SMC needs: integers (sensor
// readings, thresholds), doubles (calibrated measurements), booleans,
// strings (tags, device types — "arbitrary tags as event identifiers",
// §VI) and raw byte blobs (opaque payloads like the Figure 4 workloads).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.hpp"

namespace amuse {

enum class ValueType : std::uint8_t {
  kInt = 1,
  kDouble = 2,
  kBool = 3,
  kString = 4,
  kBytes = 5,
};

[[nodiscard]] const char* to_string(ValueType t);

class Value;

/// A non-owning look at one typed value: an int, double or bool held by
/// value, a string or byte string as a view into bytes someone else owns
/// (an event's body, a filter's constant). What the matchers, the policy
/// engine and typed events read; it lives no longer than those bytes.
class ValueView {
 public:
  ValueView() : type_(ValueType::kInt) {}  // int 0, as Value()
  ValueView(const Value& v);  // NOLINT(runtime/explicit)
  explicit ValueView(std::int64_t v) : type_(ValueType::kInt) { num_.i = v; }
  explicit ValueView(double v) : type_(ValueType::kDouble) { num_.d = v; }
  explicit ValueView(bool v) : type_(ValueType::kBool) { num_.b = v; }
  explicit ValueView(std::string_view v)
      : type_(ValueType::kString), text_(v.data()), len_(v.size()) {}
  explicit ValueView(BytesView v)
      : type_(ValueType::kBytes),
        text_(reinterpret_cast<const char*>(v.data())),
        len_(v.size()) {}

  [[nodiscard]] ValueType type() const { return type_; }
  [[nodiscard]] bool is_numeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }
  /// Numeric view (int promoted to double). Precondition: is_numeric().
  [[nodiscard]] double as_double() const {
    return type_ == ValueType::kInt ? static_cast<double>(num_.i) : num_.d;
  }
  [[nodiscard]] std::int64_t as_int() const { return num_.i; }
  [[nodiscard]] bool as_bool() const { return num_.b; }
  [[nodiscard]] std::string_view as_string() const { return {text_, len_}; }
  [[nodiscard]] BytesView as_bytes() const {
    return {reinterpret_cast<const std::uint8_t*>(text_), len_};
  }

  /// As Value::equals / Value::compare.
  [[nodiscard]] bool equals(ValueView other) const;
  [[nodiscard]] int compare(ValueView other) const;
  [[nodiscard]] std::string to_string() const;
  void encode(Writer& w) const;
  /// The bytes encode() writes.
  [[nodiscard]] std::size_t encoded_size() const;

 private:
  ValueType type_;
  union {
    std::int64_t i;
    double d;
    bool b;
  } num_{};
  const char* text_ = nullptr;
  std::size_t len_ = 0;
};

class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t v) : v_(v) {}                    // NOLINT(runtime/explicit)
  Value(int v) : v_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : v_(v) {}                          // NOLINT
  Value(bool v) : v_(v) {}                            // NOLINT
  Value(std::string v) : v_(std::move(v)) {}          // NOLINT
  Value(const char* v) : v_(std::string(v)) {}        // NOLINT
  Value(Bytes v) : v_(std::move(v)) {}                // NOLINT
  /// An owning copy of a viewed value.
  explicit Value(ValueView v);

  // Inline: the matchers and the policy engine ask for the type of every
  // attribute they test.
  [[nodiscard]] ValueType type() const {
    return static_cast<ValueType>(v_.index() + 1);
  }

  [[nodiscard]] bool is_numeric() const { return v_.index() <= 1; }
  /// Numeric view (int promoted to double). Precondition: is_numeric().
  [[nodiscard]] double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(v_);
  }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Bytes& as_bytes() const { return std::get<Bytes>(v_); }

  /// Structural equality; numerics compare cross-type by value, so
  /// Value(3) == Value(3.0) — filters and events may mix int and double
  /// encodings for the same logical quantity (devices send what they can).
  [[nodiscard]] bool equals(const Value& other) const {
    return ValueView(*this).equals(other);
  }

  /// Total order within a type family (numeric family unified). Ordering
  /// across unrelated types is well-defined but arbitrary (by type tag),
  /// which the matchers use for index keys.
  [[nodiscard]] int compare(const Value& other) const {
    return ValueView(*this).compare(other);
  }

  /// Human/Siena-readable form, e.g. `int:42`, `str:"abc"`, `bytes:4:a1b2…`.
  [[nodiscard]] std::string to_string() const {
    return ValueView(*this).to_string();
  }

  void encode(Writer& w) const { ValueView(*this).encode(w); }
  [[nodiscard]] static Value decode(Reader& r);

 private:
  friend class ValueView;
  std::variant<std::int64_t, double, bool, std::string, Bytes> v_;
};

}  // namespace amuse
