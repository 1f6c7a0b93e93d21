// SelfManagedCell: the full SMC core (§I, §II) assembled on one host —
// event bus + discovery service + policy service (store, obligation engine,
// authorisation, deployment) wired together:
//   - discovery admits/purges members → bus creates/destroys proxies and
//     "New Member"/"Purge Member" events appear on the bus;
//   - the policy service's authorisation hook gates every member publish
//     and subscribe;
//   - the obligation engine and policy deployer run as local subscribers.
#pragma once

#include <memory>

#include "bus/event_bus.hpp"
#include "discovery/discovery_service.hpp"
#include "policy/authorisation.hpp"
#include "policy/deployment.hpp"
#include "policy/obligation_engine.hpp"
#include "policy/policy_store.hpp"

namespace amuse {

struct SmcCellConfig {
  std::string name = "smc";
  Bytes pre_shared_key = to_bytes("amuse-cell-key");
  EventBusConfig bus;
  /// cell_name and pre_shared_key are overridden from the fields above.
  DiscoveryConfig discovery;
};

class SelfManagedCell {
 public:
  /// `bus_endpoint` and `discovery_endpoint` are two transport endpoints on
  /// the core host (the discovery protocol does not use the event bus).
  SelfManagedCell(Executor& executor,
                  std::shared_ptr<Transport> bus_endpoint,
                  std::shared_ptr<Transport> discovery_endpoint,
                  SmcCellConfig config = {});

  /// Starts discovery beaconing and the policy engine.
  AMUSE_AFFINITY(core_executor) void start();
  AMUSE_AFFINITY(core_executor) void stop();

  /// Parses and loads Ponder-lite policy text into the store.
  AMUSE_AFFINITY(core_executor) void load_policies(const std::string& text);

  [[nodiscard]] EventBus& bus() { return *bus_; }
  [[nodiscard]] DiscoveryService& discovery() { return *discovery_; }
  [[nodiscard]] PolicyStore& policies() { return store_; }
  [[nodiscard]] ObligationEngine& obligations() { return *engine_; }
  [[nodiscard]] AuthorisationService& authorisation() { return *auth_; }
  [[nodiscard]] PolicyDeployer& deployer() { return *deployer_; }
  [[nodiscard]] const SmcCellConfig& config() const { return config_; }

 private:
  SmcCellConfig config_;
  std::unique_ptr<EventBus> bus_;
  std::unique_ptr<DiscoveryService> discovery_;
  PolicyStore store_;
  std::unique_ptr<AuthorisationService> auth_;
  std::unique_ptr<ObligationEngine> engine_;
  std::unique_ptr<PolicyDeployer> deployer_;
};

}  // namespace amuse
