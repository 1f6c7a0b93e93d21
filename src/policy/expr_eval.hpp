// Evaluation of Ponder-lite expressions against a triggering event.
#pragma once

#include "policy/ast.hpp"
#include "pubsub/event.hpp"

namespace amuse {

/// Evaluates `expr` with attribute references resolved against `trigger`.
/// Missing attributes yield nullopt ("absent"): comparisons involving them
/// are false, exists() is false, and logic treats them as false — a policy
/// never throws at runtime because a device omitted a field. The result
/// views the trigger's body or the expression's literal: it lives as long
/// as both do.
[[nodiscard]] std::optional<ValueView> eval_expr(const PolicyExpr& expr,
                                                 const Event& trigger);

/// Truthiness: bool → itself; numeric → != 0; string/bytes → non-empty.
[[nodiscard]] bool truthy(ValueView v);

/// Condition wrapper: null condition is true; otherwise truthy(eval).
[[nodiscard]] bool eval_condition(const PolicyExpr* expr,
                                  const Event& trigger);

}  // namespace amuse
