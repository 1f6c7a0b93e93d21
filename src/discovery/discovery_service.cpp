#include "discovery/discovery_service.hpp"

#include "common/log.hpp"
#include "wire/packet.hpp"

namespace amuse {
namespace {
const Logger kLog("discovery");

// Challenge lifetime for half-open joins.
constexpr Duration kChallengeTtl = seconds(5);

Event member_event(const char* type, const MemberInfo& info,
                   const std::string& reason = "") {
  Event e(type);
  e.set("member", static_cast<std::int64_t>(info.id.raw()));
  e.set("device_type", info.device_type);
  e.set("role", info.role);
  if (!reason.empty()) e.set("reason", reason);
  return e;
}

}  // namespace

Digest256 admission_mac(const HmacSha256& psk, BytesView nonce,
                        ServiceId device, std::string_view device_type) {
  Sha256 h = psk.begin();
  h.update(nonce);
  std::array<std::uint8_t, 6> id{};
  store_be<6>(id.data(), device.raw());
  h.update(id);
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(device_type.data()),
                     device_type.size()));
  return psk.finish(h);
}

DiscoveryService::DiscoveryService(Executor& executor,
                                   std::shared_ptr<Transport> transport,
                                   ServiceId bus_id, DiscoveryConfig config)
    : executor_(executor),
      transport_(std::move(transport)),
      bus_id_(bus_id),
      config_(std::move(config)),
      psk_(config_.pre_shared_key),
      rng_(config_.seed, /*stream=*/0xd15c),
      beacon_timer_(executor, [this] { send_beacon(); }),
      sweep_timer_(executor, [this] { sweep(); }) {
  transport_->set_receive_handler([this](ServiceId src, BytesView data) {
    on_datagram(src, data);
  });
}

DiscoveryService::~DiscoveryService() {
  stop();
  transport_->set_receive_handler(nullptr);
}

void DiscoveryService::start() {
  if (running_) return;
  running_ = true;
  send_beacon();
  sweep_timer_.arm_after(config_.sweep_interval);
}

void DiscoveryService::stop() {
  running_ = false;
  beacon_timer_.cancel();
  sweep_timer_.cancel();
}

void DiscoveryService::send_beacon() {
  if (!running_) return;
  Packet p;
  p.type = PacketType::kBeacon;
  p.src = id();
  p.dst = ServiceId::broadcast();
  Writer w;
  w.str(config_.cell_name);
  w.u48(bus_id_.raw());
  // Trailing, back-compat: promotion epoch. Fencing agents never follow
  // the cell backwards across a promotion; legacy agents ignore it.
  w.u64(config_.epoch);
  p.payload = std::move(w).take();
  transport_->broadcast(p.encode());
  ++stats_.beacons_sent;
  beacon_timer_.arm_after(config_.beacon_interval);
}

void DiscoveryService::on_datagram(ServiceId src, BytesView data) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "DiscoveryService::on_datagram");
  std::optional<Packet> packet = Packet::decode(data);
  if (!packet) return;
  // Any authenticated member traffic counts as liveness evidence.
  if (membership_.contains(src) && packet->type != PacketType::kJoinRequest) {
    if (membership_.touch(src, executor_.now())) {
      ++stats_.recoveries;
      const MemberRecord* rec = membership_.find(src);
      if (rec) {
        kLog.debug("member ", src.to_string(), " recovered");
        if (observer_.on_recovered) observer_.on_recovered(rec->info);
        if (on_recovered_) on_recovered_(rec->info);
        if (publish_) {
          publish_(member_event(smc_events::kRecoveredMember, rec->info));
        }
      }
    }
  }

  try {
    switch (packet->type) {
      case PacketType::kJoinRequest: {
        ++stats_.join_requests;
        // (Re-)challenge; idempotent under datagram loss and duplication.
        Bytes nonce(16);
        for (auto& b : nonce) b = static_cast<std::uint8_t>(rng_.bounded(256));
        pending_[src] =
            PendingJoin{nonce, executor_.now() + kChallengeTtl};
        Packet out;
        out.type = PacketType::kJoinChallenge;
        out.src = id();
        out.dst = src;
        Writer w;
        w.blob16(nonce);
        out.payload = std::move(w).take();
        transport_->send(src, out.encode());
        ++stats_.challenges_sent;
        break;
      }
      case PacketType::kJoinResponse: {
        auto pit = pending_.find(src);
        if (pit == pending_.end() || pit->second.expires < executor_.now()) {
          pending_.erase(src);
          break;  // no live challenge: ignore (device will retry)
        }
        Reader r(packet->payload);
        std::string device_type = r.str();
        std::string role = r.str();
        Bytes mac = r.blob16();
        // Trailing, back-compat: digest of the interest mirror the member
        // already holds (all zero / absent = none).
        Digest256 table_digest{};
        if (r.remaining() >= table_digest.size()) {
          BytesView held = r.raw(table_digest.size());
          std::copy(held.begin(), held.end(), table_digest.begin());
        }
        Digest256 want =
            admission_mac(psk_, pit->second.nonce, src, device_type);
        Digest256 got{};
        bool size_ok = mac.size() == got.size();
        if (size_ok) std::copy(mac.begin(), mac.end(), got.begin());
        if (!size_ok || !digest_equal(want, got)) {
          ++stats_.joins_rejected;
          Packet out;
          out.type = PacketType::kJoinReject;
          out.src = id();
          out.dst = src;
          Writer w;
          w.str("authentication failed");
          out.payload = std::move(w).take();
          transport_->send(src, out.encode());
          pending_.erase(pit);
          kLog.warn("join rejected for ", src.to_string(),
                    ": authentication failed");
          break;
        }
        pending_.erase(pit);
        admit(src, device_type, role, table_digest);
        break;
      }
      case PacketType::kHeartbeat:
        if (membership_.contains(src)) {
          ++stats_.heartbeats;
        } else {
          // The device believes it is a member but was purged while it was
          // unreachable. Without a notice it would stay deaf (its bus
          // traffic is dropped) until its own loss timer; tell it to
          // re-join instead.
          ++stats_.evictions_notified;
          Packet out;
          out.type = PacketType::kJoinReject;
          out.src = id();
          out.dst = src;
          Writer w;
          w.str("not a member");
          out.payload = std::move(w).take();
          transport_->send(src, out.encode());
        }
        break;  // touch already happened above
      case PacketType::kLeave: {
        ++stats_.leaves;
        auto rec = membership_.find(src);
        if (rec) {
          MemberInfo info = rec->info;
          do_purge(info, "leave");
        }
        break;
      }
      case PacketType::kBeacon: {
        // A rival core beaconing our cell's name with a higher epoch: we
        // were deposed while partitioned (a standby promoted past us).
        // Step down exactly once — stop beaconing and let the composition
        // fence the bus (DESIGN.md §13).
        if (config_.epoch == 0 || !running_ || src == id()) break;
        Reader r(packet->payload);
        std::string cell = r.str();
        (void)r.u48();  // rival's bus id
        std::uint64_t epoch = r.remaining() >= 8 ? r.u64() : 0;
        if (cell != config_.cell_name || epoch <= config_.epoch) break;
        ++stats_.rival_step_downs;
        deposed_ = true;
        kLog.warn("core deposed by rival ", src.to_string(), " at epoch ",
                  std::to_string(epoch), "; stepping down");
        stop();
        if (on_deposed_) on_deposed_();
        break;
      }
      default:
        break;  // beacons from other cells, reliable traffic, etc.
    }
  } catch (const DecodeError& e) {
    kLog.warn("malformed discovery packet from ", src.to_string(), ": ",
              e.what());
  }
}

void DiscoveryService::admit(ServiceId device, const std::string& device_type,
                             const std::string& role,
                             const Digest256& table_digest) {
  MemberInfo info{device, device_type, role, table_digest};
  bool rejoin = membership_.contains(device);
  membership_.admit(info, executor_.now());
  ++stats_.joins_accepted;

  Packet out;
  out.type = PacketType::kJoinAccept;
  out.src = id();
  out.dst = device;
  Writer w;
  w.u64(static_cast<std::uint64_t>(config_.heartbeat_interval.count()));
  w.u64(static_cast<std::uint64_t>(config_.purge_after.count()));
  w.u48(bus_id_.raw());
  // The session the member's new proxy channel will speak: the device's
  // receiver uses it as a floor, rejecting stale frames from any earlier
  // proxy incarnation that race the rejoin. 0 = no reservation wired.
  w.u32(session_provider_ ? session_provider_(device) : 0);
  // Trailing, back-compat: promotion epoch — raises the member's fence so
  // a deposed predecessor's beacons are ignored after this admission.
  w.u64(config_.epoch);
  out.payload = std::move(w).take();
  transport_->send(device, out.encode());

  kLog.info("member ", device.to_string(), " admitted (", device_type,
            rejoin ? ", rejoin)" : ")");
  if (observer_.on_admit) observer_.on_admit(info, rejoin);
  if (on_new_member_) on_new_member_(info);
  if (publish_) publish_(member_event(smc_events::kNewMember, info));
}

void DiscoveryService::purge(ServiceId id_to_purge,
                             const std::string& reason) {
  const MemberRecord* rec = membership_.find(id_to_purge);
  if (!rec) return;
  MemberInfo info = rec->info;
  do_purge(info, reason);
}

void DiscoveryService::do_purge(const MemberInfo& info,
                                const std::string& reason) {
  membership_.remove(info.id);
  ++stats_.purges;
  kLog.info("member ", info.id.to_string(), " purged (", reason, ")");
  if (observer_.on_purge) observer_.on_purge(info, reason);
  if (on_purge_) on_purge_(info.id);
  if (publish_) {
    publish_(member_event(smc_events::kPurgeMember, info, reason));
  }
}

void DiscoveryService::sweep() {
  if (!running_) return;
  TimePoint now = executor_.now();

  // Expire stale half-open joins.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.expires < now) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  Membership::Sweep result =
      membership_.sweep(now, config_.suspect_after, config_.purge_after);
  for (const MemberInfo& info : result.newly_suspect) {
    ++stats_.suspects;
    membership_.mark_suspect(info.id);
    kLog.debug("member ", info.id.to_string(), " suspect");
    if (observer_.on_suspect) observer_.on_suspect(info);
    if (on_suspect_) on_suspect_(info);
    if (publish_) publish_(member_event(smc_events::kSuspectMember, info));
  }
  for (const MemberInfo& info : result.to_purge) {
    do_purge(info, "timeout");
  }

  sweep_timer_.arm_after(config_.sweep_interval);
}

}  // namespace amuse
