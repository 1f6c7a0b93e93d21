#include "policy/ast.hpp"

namespace amuse {

ExprPtr PolicyExpr::make_literal(Value v) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr PolicyExpr::make_attr(std::string name) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = Kind::kAttr;
  e->attr = std::move(name);
  return e;
}

ExprPtr PolicyExpr::make_exists(std::string name) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = Kind::kExists;
  e->attr = std::move(name);
  return e;
}

ExprPtr PolicyExpr::make_not(ExprPtr inner) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = Kind::kNot;
  e->lhs = std::move(inner);
  return e;
}

ExprPtr PolicyExpr::make_binary(Kind kind, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = kind;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr PolicyExpr::make_cmp(Op op, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = Kind::kCmp;
  e->cmp_op = op;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr PolicyExpr::clone() const {
  auto e = std::make_unique<PolicyExpr>();
  e->kind = kind;
  e->literal = literal;
  e->attr = attr;
  e->cmp_op = cmp_op;
  if (lhs) e->lhs = lhs->clone();
  if (rhs) e->rhs = rhs->clone();
  return e;
}

std::string PolicyExpr::to_string() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.to_string();
    case Kind::kAttr:
      return attr;
    case Kind::kExists:
      return "exists(" + attr + ")";
    case Kind::kNot:
      return "!(" + lhs->to_string() + ")";
    case Kind::kAnd:
      return "(" + lhs->to_string() + " && " + rhs->to_string() + ")";
    case Kind::kOr:
      return "(" + lhs->to_string() + " || " + rhs->to_string() + ")";
    case Kind::kCmp:
      return "(" + lhs->to_string() + " " + amuse::to_string(cmp_op) + " " +
             rhs->to_string() + ")";
  }
  return "?";
}

Filter ObligationPolicy::trigger_filter() const {
  return on_prefix ? Filter::for_type_prefix(on_type)
                   : Filter::for_type(on_type);
}

bool topic_matches(std::string_view pattern, std::string_view topic) {
  bool pattern_wild = pattern.ends_with('*');
  bool topic_wild = topic.ends_with('*');
  std::string_view pbase =
      pattern_wild ? pattern.substr(0, pattern.size() - 1) : pattern;
  std::string_view tbase =
      topic_wild ? topic.substr(0, topic.size() - 1) : topic;
  if (pattern_wild) return tbase.starts_with(pbase);
  // Exact pattern can only cover an exact topic.
  return !topic_wild && tbase == pbase;
}

bool AuthPolicy::matches(const std::string& member_role, AuthOp action,
                         std::string_view topic) const {
  if (op != action) return false;
  if (role != "*" && role != member_role) return false;
  return topic_matches(topic_pattern, topic);
}

}  // namespace amuse
