// Ponder-lite policy AST (paper §II-A).
//
// Two policy families, after Damianou et al.'s Ponder:
//   - obligation policies: event-condition-action rules that "specify how
//     components/services react to events";
//   - authorisation policies: "what resources the components assigned to a
//     role can access" — here, which roles may publish/subscribe to which
//     event-type topics.
//
// Concrete syntax (see parser.hpp for the grammar):
//   policy high_hr on vitals.heartrate when hr > 120
//     do publish alarm.cardiac { level = "high", hr = hr };
//   auth deny role "sensor" subscribe "control.*";
//   auth default permit;
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/filter.hpp"

namespace amuse {

struct PolicyExpr;
using ExprPtr = std::unique_ptr<PolicyExpr>;

struct PolicyExpr {
  enum class Kind {
    kLiteral,  // value
    kAttr,     // attribute reference (evaluates against the trigger event)
    kExists,   // exists(attr)
    kNot,      // !e
    kAnd,      // a && b
    kOr,       // a || b
    kCmp,      // a <op> b, op ∈ {==, !=, <, <=, >, >=}
  };

  Kind kind = Kind::kLiteral;
  Value literal;
  std::string attr;
  Op cmp_op = Op::kEq;
  ExprPtr lhs;
  ExprPtr rhs;

  [[nodiscard]] static ExprPtr make_literal(Value v);
  [[nodiscard]] static ExprPtr make_attr(std::string name);
  [[nodiscard]] static ExprPtr make_exists(std::string name);
  [[nodiscard]] static ExprPtr make_not(ExprPtr e);
  [[nodiscard]] static ExprPtr make_binary(Kind kind, ExprPtr a, ExprPtr b);
  [[nodiscard]] static ExprPtr make_cmp(Op op, ExprPtr a, ExprPtr b);

  [[nodiscard]] ExprPtr clone() const;
  [[nodiscard]] std::string to_string() const;
};

struct PolicyAssignment {
  std::string name;
  ExprPtr expr;
};

struct PolicyAction {
  enum class Kind {
    kPublish,  // publish <type> { name = expr, … }
    kLog,      // log "message"
    kEnable,   // enable <policy-name>   (policies governing policies)
    kDisable,  // disable <policy-name>
  };
  Kind kind = Kind::kLog;
  std::string target;  // event type / log message / policy name
  std::vector<PolicyAssignment> args;
};

struct ObligationPolicy {
  std::string name;
  /// Triggering event type; `on_prefix` true for trailing-'*' patterns.
  std::string on_type;
  bool on_prefix = false;
  ExprPtr condition;  // null = unconditional
  std::vector<PolicyAction> actions;
  bool initially_disabled = false;

  /// The bus filter this policy's subscription uses.
  [[nodiscard]] Filter trigger_filter() const;
};

enum class AuthVerdict : std::uint8_t { kPermit, kDeny };
enum class AuthOp : std::uint8_t { kPublish, kSubscribe };

struct AuthPolicy {
  AuthVerdict verdict = AuthVerdict::kPermit;
  std::string role;           // "*" = any role
  AuthOp op = AuthOp::kPublish;
  std::string topic_pattern;  // exact, or trailing-'*' prefix

  [[nodiscard]] bool matches(const std::string& member_role, AuthOp action,
                             std::string_view topic) const;
};

struct PolicyDocument {
  std::vector<ObligationPolicy> obligations;
  std::vector<AuthPolicy> auths;
  std::optional<AuthVerdict> default_verdict;
};

/// Topic-pattern matching: "vitals.*" matches "vitals.heartrate"; "*"
/// matches everything; otherwise exact. (Subscription topics may themselves
/// end in '*', in which case the pattern must cover the whole prefix.)
[[nodiscard]] bool topic_matches(std::string_view pattern,
                                 std::string_view topic);

}  // namespace amuse
