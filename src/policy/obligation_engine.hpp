// ObligationEngine: runs event-condition-action policies against the bus.
//
// For every enabled obligation policy the engine holds one local bus
// subscription on the policy's trigger filter. When a matching event
// arrives it evaluates the condition against the event's attributes and
// executes the actions: publishing derived events (alarms, control
// commands), logging, or enabling/disabling other policies — "policies
// also govern … the policy service itself" (§II-A).
//
// Cascade protection: events published by policies carry an "x-chain"
// depth attribute; chains deeper than `max_chain_depth` are suppressed so
// mutually-triggering policies cannot melt the cell.
#pragma once

#include "bus/event_bus.hpp"
#include "policy/expr_eval.hpp"
#include "policy/policy_store.hpp"

namespace amuse {

struct ObligationEngineConfig {
  int max_chain_depth = 8;
};

class ObligationEngine {
 public:
  ObligationEngine(EventBus& bus, PolicyStore& store,
                   ObligationEngineConfig config = {});
  ~ObligationEngine();

  ObligationEngine(const ObligationEngine&) = delete;
  ObligationEngine& operator=(const ObligationEngine&) = delete;

  /// Subscribes for every enabled policy and hooks store changes.
  void start();
  /// Drops and re-creates subscriptions to mirror the store.
  void refresh();

  struct Stats {
    Counter triggers;                  // events that reached a policy
    Counter conditions_false;
    Counter actions_run;
    Counter publishes;
    Counter chain_suppressed;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_trigger(const std::string& policy_name, const Event& event);
  void run_action(const PolicyAction& action, const Event& trigger,
                  const std::string& policy_name);

  EventBus& bus_;
  PolicyStore& store_;
  ObligationEngineConfig config_;
  std::map<std::string, std::uint64_t> subscriptions_;  // policy → sub id
  bool started_ = false;
  Stats stats_;
};

}  // namespace amuse
