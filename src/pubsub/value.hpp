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
  [[nodiscard]] bool equals(const Value& other) const;

  /// Total order within a type family (numeric family unified). Ordering
  /// across unrelated types is well-defined but arbitrary (by type tag),
  /// which the matchers use for index keys.
  [[nodiscard]] int compare(const Value& other) const;

  /// Human/Siena-readable form, e.g. `int:42`, `str:"abc"`, `bytes:4:a1b2…`.
  [[nodiscard]] std::string to_string() const;

  void encode(Writer& w) const;
  [[nodiscard]] static Value decode(Reader& r);

 private:
  std::variant<std::int64_t, double, bool, std::string, Bytes> v_;
};

}  // namespace amuse
