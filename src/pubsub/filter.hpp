// Content filters: conjunctions of typed constraints over event attributes
// (the Siena subscription model the prototype adopts).
//
// Besides evaluation, filters support a *covering* test — `covers(f, g)` is
// true when every event matching g also matches f — which is the relation
// Siena's subscription poset is built on (see SienaMatcher). The covering
// test is sound but deliberately incomplete: it proves implication for the
// operator algebra below and answers "unknown = not covered" otherwise.
#pragma once

#include <string>
#include <vector>

#include "pubsub/event.hpp"

namespace amuse {

enum class Op : std::uint8_t {
  kEq = 1,       // equals (numeric family unified)
  kNe = 2,       // not equals
  kLt = 3,       // strictly less (numeric or lexicographic string)
  kLe = 4,
  kGt = 5,
  kGe = 6,
  kPrefix = 7,   // string starts-with
  kSuffix = 8,   // string ends-with
  kContains = 9, // string substring
  kExists = 10,  // attribute present, any value
};

[[nodiscard]] const char* to_string(Op op);

/// Does value `v` stand in relation `op` to the constant `c`?
[[nodiscard]] bool satisfies(ValueView v, Op op, ValueView c);

struct Constraint {
  std::string attribute;
  Op op = Op::kExists;
  Value value;

  /// Does a concrete attribute value satisfy this constraint?
  [[nodiscard]] bool matches(ValueView v) const;

  /// Sound-but-incomplete implication: "every value satisfying *this also
  /// satisfies `weaker`" (both on the same attribute).
  [[nodiscard]] bool implies(const Constraint& weaker) const;

  [[nodiscard]] bool operator==(const Constraint& other) const;
  [[nodiscard]] std::string to_string() const;

  void encode(Writer& w) const;
  [[nodiscard]] static Constraint decode(Reader& r);
};

class Filter {
 public:
  Filter() = default;

  Filter& where(std::string attribute, Op op, Value value = Value());
  /// Shorthand for the ubiquitous type filter: where("type", kEq, t).
  [[nodiscard]] static Filter for_type(std::string type);
  /// Matches events whose "type" starts with `prefix` (topic trees like
  /// "vitals.").
  [[nodiscard]] static Filter for_type_prefix(std::string prefix);

  /// True when the filter has no constraints (matches everything).
  [[nodiscard]] bool empty() const { return constraints_.empty(); }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] std::size_t size() const { return constraints_.size(); }

  [[nodiscard]] bool matches(const Event& e) const;

  [[nodiscard]] bool operator==(const Filter& other) const;
  [[nodiscard]] std::string to_string() const;

  void encode(Writer& w) const;
  /// The bytes encode() writes.
  [[nodiscard]] std::size_t encoded_size() const;
  /// Throws DecodeError on malformed input.
  [[nodiscard]] static Filter decode(Reader& r);

 private:
  std::vector<Constraint> constraints_;
};

/// True when every event matching `specific` also matches `general`
/// (sound, incomplete — see file comment).
[[nodiscard]] bool covers(const Filter& general, const Filter& specific);

}  // namespace amuse
