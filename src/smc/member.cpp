#include "smc/member.hpp"

#include <utility>

namespace amuse {

SmcMember::SmcMember(Executor& executor, std::shared_ptr<Transport> transport,
                     SmcMemberConfig config)
    : executor_(executor),
      transport_(std::move(transport)),
      config_(std::move(config)) {
  agent_ = std::make_unique<DiscoveryAgent>(executor_, transport_,
                                            config_.agent);
  agent_->set_on_joined([this](ServiceId bus, std::uint32_t session) {
    on_cell_joined(bus, session);
  });
  agent_->set_on_left([this] { on_cell_left(); });
  // Presented in the JOIN_RESP so a core whose view of our filter table
  // matches the mirror we carry (a promoted standby, typically) confirms it
  // instead of re-pushing it.
  agent_->set_table_digest_provider(
      [this] { return carried_mirror_.held_digest(); });

  transport_->set_receive_handler([this](ServiceId src, BytesView data) {
    // Mux: reliable-channel frames go to the bus client, the discovery
    // protocol to the agent. Peek at the decoded type once.
    std::optional<Packet> p = Packet::decode(data);
    if (!p) return;
    if (p->type == PacketType::kData || p->type == PacketType::kAck) {
      if (client_) client_->handle_packet(src, *p);
    } else {
      agent_->handle_packet(src, *p);
    }
  });
}

SmcMember::~SmcMember() { transport_->set_receive_handler(nullptr); }

void SmcMember::start() { agent_->start(); }

void SmcMember::leave() {
  agent_->leave();
  // on_cell_left() runs via the agent callback.
}

std::uint64_t SmcMember::subscribe(const Filter& filter, Handler handler) {
  std::uint64_t id = next_id_++;
  desired_.emplace(id, DesiredSub{filter, handler});
  if (client_) {
    live_ids_[id] = client_->subscribe(filter, std::move(handler));
  }
  return id;
}

void SmcMember::unsubscribe(std::uint64_t id) {
  desired_.erase(id);
  auto it = live_ids_.find(id);
  if (it != live_ids_.end()) {
    if (client_) client_->unsubscribe(it->second);
    live_ids_.erase(it);
  }
}

bool SmcMember::publish(Event event) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "SmcMember::publish");
  if (client_ && !client_->pressured()) {
    return client_->publish(std::move(event));
  }
  if (offline_.size() >= config_.offline_buffer) {
    ++stats_.buffer_dropped;
    return false;
  }
  if (client_) ++stats_.pressure_deferrals;
  offline_.push_back(std::move(event));
  ++stats_.buffered;
  return true;
}

void SmcMember::on_cell_joined(ServiceId bus, std::uint32_t session) {
  ++stats_.joins;
  BusClientConfig cc;
  cc.channel = config_.channel;
  // Accept only frames from the proxy incarnation created for *this*
  // admission (or later): a stale retransmission from a pre-purge proxy is
  // also seq 0 and would otherwise be adopted by the fresh receiver,
  // leaking the previous incarnation's backlog.
  cc.channel.min_peer_session = agent_->bus_channel_session();
  cc.quench = config_.quench;
  cc.session = session;
  cc.install_receive_handler = false;
  client_ = std::make_unique<BusClient>(executor_, transport_, bus, cc);
  // The filter table survives the re-join, unsynced until the admission
  // update confirms or replaces it.
  client_->adopt_mirror(std::exchange(carried_mirror_, {}));
  // Exactly-once across core failover: a promoted core re-delivers its
  // replicated spool to every re-homing member; anything whose origin stamp
  // we already saw under the previous incarnation is dropped here, before
  // handler dispatch. The key is the full (cell, epoch, seq): events a
  // gateway relayed from another cell keep that cell's stamp.
  //
  // Only an HA core re-delivers. A cell that has never spoken an epoch has
  // none, and its core, cold-restarted on the same id, stamps (cell, 1)
  // from seq 1 again: a window kept across this join would drop its fresh
  // events, so start clean.
  if (agent_->max_epoch() == 0) origin_dedup_.clear();
  client_->set_delivery_filter([this](const Event& event) {
    if (!event.origin().stamped()) return true;
    if (origin_dedup_.admit(event.origin())) return true;
    ++stats_.ha_duplicates_dropped;
    return false;
  });
  client_->set_on_pressure([this](bool under_pressure) {
    if (!under_pressure) flush_offline();
    if (on_pressure_) on_pressure_(under_pressure);
  });
  if (on_interest_) client_->set_on_interest(on_interest_);

  // Re-register durable subscriptions under the fresh session.
  live_ids_.clear();
  for (const auto& [id, sub] : desired_) {
    live_ids_[id] = client_->subscribe(sub.filter, sub.handler);
  }
  flush_offline();  // events queued while out of range
  if (on_joined_) on_joined_();
}

void SmcMember::flush_offline() {
  // Stop mid-flush if a publish's own traffic re-raises pressure; the
  // remainder goes out on the next release signal.
  while (client_ && !client_->pressured() && !offline_.empty()) {
    Event event = std::move(offline_.front());
    offline_.pop_front();
    ++stats_.flushed;
    (void)client_->publish(std::move(event));
  }
}

void SmcMember::on_cell_left() {
  // Carry the filter table we hold: the next JOIN_RESP presents its digest
  // so an unchanged core (or a warm standby promoted with the same
  // replicated state) confirms it instead of pushing the table again.
  if (client_) carried_mirror_ = client_->release_mirror();
  client_.reset();
  live_ids_.clear();
  if (on_left_) on_left_();
}

}  // namespace amuse
