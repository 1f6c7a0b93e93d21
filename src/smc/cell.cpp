#include "smc/cell.hpp"

#include "proxy/forwarding_proxy.hpp"

namespace amuse {

SelfManagedCell::SelfManagedCell(Executor& executor,
                                 std::shared_ptr<Transport> bus_endpoint,
                                 std::shared_ptr<Transport> discovery_endpoint,
                                 SmcCellConfig config)
    : config_(std::move(config)) {
  bus_ = std::make_unique<EventBus>(executor, std::move(bus_endpoint),
                                    config_.bus);

  DiscoveryConfig dc = config_.discovery;
  dc.cell_name = config_.name;
  dc.pre_shared_key = config_.pre_shared_key;
  if (bus_->ha_enabled()) {
    // HA cell: discovery speaks the bus's promotion epoch (beacon and
    // JoinAccept fencing stamps) and so yields to a higher-epoch rival.
    dc.epoch = bus_->epoch();
  }
  discovery_ = std::make_unique<DiscoveryService>(
      executor, std::move(discovery_endpoint), bus_->bus_id(), dc);
  // Split-brain resolution: a rival core with a higher epoch deposes this
  // one — the bus fences itself (sheds-and-accounts instead of routing)
  // and drops its proxies so no stale incarnation delivers again.
  discovery_->set_on_deposed([this] { bus_->step_down(); });

  // Membership drives the bus ("the discovery service informs the SMC of
  // the arrival or departure of devices via New Member and Purge Member
  // events").
  discovery_->set_on_new_member(
      [this](const MemberInfo& info) { bus_->add_member(info); });
  discovery_->set_on_purge_member(
      [this](ServiceId id) { bus_->purge_member(id); });
  // Reserve the proxy-channel session at admission so the JoinAccept can
  // carry it: the member's fresh receiver then rejects stale frames from
  // any earlier proxy incarnation racing the rejoin handshake.
  discovery_->set_session_provider(
      [this](ServiceId id) { return bus_->reserve_channel_session(id); });
  discovery_->set_on_recovered([this](const MemberInfo& info) {
    // Liveness evidence restarts any stalled delivery channel immediately
    // instead of waiting for the next retransmission cycle.
    if (auto* proxy = dynamic_cast<ForwardingProxy*>(bus_->proxy_for(info.id))) {
      proxy->resume();
    }
  });
  discovery_->set_publisher([this](Event e) { bus_->publish_local(std::move(e)); });

  // The policy store's authorisation service gates every publish and
  // subscribe on the bus.
  auth_ = std::make_unique<AuthorisationService>(store_);
  bus_->set_authoriser(auth_->authoriser());
  engine_ = std::make_unique<ObligationEngine>(*bus_, store_);
  deployer_ = std::make_unique<PolicyDeployer>(*bus_, store_);
}

void SelfManagedCell::start() {
  engine_->start();
  deployer_->start();
  discovery_->start();
}

void SelfManagedCell::stop() { discovery_->stop(); }

void SelfManagedCell::load_policies(const std::string& text) {
  store_.load_text(text);
}

}  // namespace amuse
