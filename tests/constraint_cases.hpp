// The operator × value-type table that pins FastForwardMatcher's compiled
// tests to Constraint::matches. Shared by the table-driven test
// (tests/matcher_test.cpp) and the matcher seed corpus
// (fuzz/make_corpus.cpp), so the fuzzer starts from the same cases.
//
// Every Op is paired with every value below, as the constant and as the
// event's value (events also carry values no constant holds): int/double
// cross-type equality (3 and 3.0; two integers that round to the same
// double), NaN, both bools, byte strings (including a byte above 0x7f and
// the empty one), the empty string and a string prefix longer than the
// value it is tested against.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pubsub/filter.hpp"

namespace amuse::cases {

inline constexpr std::array<Op, 10> kOps = {
    Op::kEq,     Op::kNe,     Op::kLt,       Op::kLe,    Op::kGt,
    Op::kGe,     Op::kPrefix, Op::kSuffix, Op::kContains, Op::kExists};

inline std::vector<Value> constraint_values() {
  return {
      Value(std::int64_t{3}),
      Value(std::int64_t{-1}),
      Value(3.0),
      Value(2.5),
      Value(std::int64_t{9007199254740993}),  // 2^53 + 1: rounds to 2^53
      Value(9007199254740992.0),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(true),
      Value(false),
      Value(std::string()),
      Value(std::string("abc")),
      Value(std::string("abcdef")),  // a prefix longer than "abc"
      Value(std::string("b")),
      Value(Bytes{0x01, 0x02}),
      Value(Bytes{0xff}),
      Value(Bytes{}),
  };
}

/// What events carry: every constant, plus values no constant holds (an
/// event string the matcher never interned, among them one shorter than
/// the "abc" prefix).
inline std::vector<Value> event_values() {
  std::vector<Value> values = constraint_values();
  values.emplace_back(std::string("ab"));
  values.emplace_back(Bytes{0x01});
  values.emplace_back(std::int64_t{7});
  return values;
}

/// The attribute every case constrains, and a second, string-equality
/// constraint that takes the key when both are present, so the case is
/// evaluated as a compiled test rather than through its bucket.
inline constexpr const char* kAttr = "x";
inline constexpr const char* kKeyAttr = "k";

inline Filter alone(Op op, const Value& c) {
  return Filter().where(kAttr, op, c);
}

inline Filter behind_key(Op op, const Value& c) {
  return Filter()
      .where(kKeyAttr, Op::kEq, Value(std::string("key")))
      .where(kAttr, op, c);
}

inline Event event_with(const Value& v) {
  Event e("case");
  e.set(kAttr, v);
  e.set(kKeyAttr, Value(std::string("key")));
  return e;
}

}  // namespace amuse::cases
