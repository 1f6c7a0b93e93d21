#include "policy/obligation_engine.hpp"

#include "common/log.hpp"

namespace amuse {
namespace {
const Logger kLog("policy.engine");
}

ObligationEngine::ObligationEngine(EventBus& bus, PolicyStore& store,
                                   ObligationEngineConfig config)
    : bus_(bus), store_(store), config_(config) {}

ObligationEngine::~ObligationEngine() {
  for (const auto& [name, sub] : subscriptions_) bus_.unsubscribe_local(sub);
}

void ObligationEngine::start() {
  if (started_) return;
  started_ = true;
  store_.set_on_change([this] { refresh(); });
  refresh();
}

void ObligationEngine::refresh() {
  if (!started_) return;
  for (const auto& [name, sub] : subscriptions_) bus_.unsubscribe_local(sub);
  subscriptions_.clear();
  for (const ObligationPolicy* p : store_.enabled()) {
    std::string name = p->name;
    std::uint64_t sub = bus_.subscribe_local(
        p->trigger_filter(),
        [this, name](const Event& e) { on_trigger(name, e); });
    subscriptions_.emplace(std::move(name), sub);
  }
}

void ObligationEngine::on_trigger(const std::string& policy_name,
                                  const Event& event) {
  // Re-check against the store: the policy may have been disabled between
  // subscription refreshes (or by an earlier action of this same event).
  const ObligationPolicy* p = store_.find(policy_name);
  if (!p || !store_.is_enabled(policy_name)) return;

  ++stats_.triggers;
  if (!eval_condition(p->condition.get(), event)) {
    ++stats_.conditions_false;
    return;
  }
  for (const PolicyAction& action : p->actions) {
    ++stats_.actions_run;
    run_action(action, event, policy_name);
  }
}

void ObligationEngine::run_action(const PolicyAction& action,
                                  const Event& trigger,
                                  const std::string& policy_name) {
  switch (action.kind) {
    case PolicyAction::Kind::kPublish: {
      std::int64_t depth = trigger.get_int("x-chain", 0) + 1;
      if (depth > config_.max_chain_depth) {
        ++stats_.chain_suppressed;
        kLog.warn("policy ", policy_name, ": cascade depth ", depth,
                  " exceeds limit; suppressing publish of ", action.target);
        return;
      }
      Event out(action.target);
      for (const PolicyAssignment& as : action.args) {
        std::optional<ValueView> v = eval_expr(*as.expr, trigger);
        if (v) out.set(as.name, *v);
        // Absent source attribute: omit rather than fabricate.
      }
      out.set("x-policy", policy_name);
      out.set("x-chain", depth);
      ++stats_.publishes;
      bus_.publish_local(std::move(out));
      break;
    }
    case PolicyAction::Kind::kLog:
      kLog.info("policy ", policy_name, ": ", action.target, " [event ",
                trigger.type(), "]");
      break;
    case PolicyAction::Kind::kEnable:
      if (!store_.enable(action.target)) {
        kLog.warn("policy ", policy_name, ": enable of unknown policy ",
                  action.target);
      }
      break;
    case PolicyAction::Kind::kDisable:
      if (!store_.disable(action.target)) {
        kLog.warn("policy ", policy_name, ": disable of unknown policy ",
                  action.target);
      }
      break;
  }
}

}  // namespace amuse
