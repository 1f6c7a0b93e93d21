// PolicyDeployer: type-driven policy deployment on admission.
//
// "When a device is discovered and granted membership of an SMC, the
//  appropriate policies, based on device type, are deployed to it. This is
//  triggered by a discovery event." (§II-A)
//
// The deployer subscribes to "smc.member.new". Each rule names a device-
// type prefix and carries (a) policies to enable in the cell's store and
// (b) control-event templates to publish at the new member — e.g. a
// threshold configuration that the member's proxy translates into a device
// command ("each sensor can also receive control commands from management
// components, such as the Policy Service, to change thresholds", §II).
#pragma once

#include "bus/event_bus.hpp"
#include "policy/policy_store.hpp"

namespace amuse {

struct DeploymentRule {
  std::string device_type_prefix;
  /// Policies switched on when a matching device joins.
  std::vector<std::string> enable_policies;
  /// Event templates published per admission; the deployer adds
  /// "member" = <new member id> to each.
  std::vector<Event> control_events;
};

class PolicyDeployer {
 public:
  PolicyDeployer(EventBus& bus, PolicyStore& store);
  ~PolicyDeployer();

  PolicyDeployer(const PolicyDeployer&) = delete;
  PolicyDeployer& operator=(const PolicyDeployer&) = delete;

  void add_rule(DeploymentRule rule);
  /// Subscribes to discovery events.
  void start();

  struct Stats {
    Counter admissions_seen;
    Counter rules_applied;
    Counter policies_enabled;
    Counter control_events_sent;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_new_member(const Event& e);

  EventBus& bus_;
  PolicyStore& store_;
  std::vector<DeploymentRule> rules_;
  std::uint64_t subscription_ = 0;
  bool started_ = false;
  Stats stats_;
};

}  // namespace amuse
