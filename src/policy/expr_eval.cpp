#include "policy/expr_eval.hpp"

namespace amuse {

bool truthy(ValueView v) {
  switch (v.type()) {
    case ValueType::kBool:
      return v.as_bool();
    case ValueType::kInt:
      return v.as_int() != 0;
    case ValueType::kDouble:
      return v.as_double() != 0.0;
    case ValueType::kString:
      return !v.as_string().empty();
    case ValueType::kBytes:
      return !v.as_bytes().empty();
  }
  return false;
}

namespace {

bool truthy_or_false(const std::optional<ValueView>& v) {
  return v.has_value() && truthy(*v);
}

bool compare(Op op, ValueView a, ValueView b) {
  // The filter constraint semantics, so policies and subscriptions agree
  // on what "hr > 120" means for every type combination.
  return satisfies(a, op, b);
}

}  // namespace

std::optional<ValueView> eval_expr(const PolicyExpr& expr,
                                   const Event& trigger) {
  using Kind = PolicyExpr::Kind;
  switch (expr.kind) {
    case Kind::kLiteral:
      return ValueView(expr.literal);
    case Kind::kAttr:
      return trigger.get(expr.attr);
    case Kind::kExists:
      return ValueView(trigger.has(expr.attr));
    case Kind::kNot:
      return ValueView(!truthy_or_false(eval_expr(*expr.lhs, trigger)));
    case Kind::kAnd: {
      if (!truthy_or_false(eval_expr(*expr.lhs, trigger))) {
        return ValueView(false);
      }
      return ValueView(truthy_or_false(eval_expr(*expr.rhs, trigger)));
    }
    case Kind::kOr: {
      if (truthy_or_false(eval_expr(*expr.lhs, trigger))) {
        return ValueView(true);
      }
      return ValueView(truthy_or_false(eval_expr(*expr.rhs, trigger)));
    }
    case Kind::kCmp: {
      std::optional<ValueView> a = eval_expr(*expr.lhs, trigger);
      std::optional<ValueView> b = eval_expr(*expr.rhs, trigger);
      if (!a || !b) return ValueView(false);
      return ValueView(compare(expr.cmp_op, *a, *b));
    }
  }
  return std::nullopt;
}

bool eval_condition(const PolicyExpr* expr, const Event& trigger) {
  if (!expr) return true;
  std::optional<ValueView> v = eval_expr(*expr, trigger);
  return v.has_value() && truthy(*v);
}

}  // namespace amuse
