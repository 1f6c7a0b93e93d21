#include "discovery/discovery_agent.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "discovery/discovery_service.hpp"

namespace amuse {
namespace {
const Logger kLog("discovery.agent");

// Give up on a handshake step and wait for the next beacon after this.
constexpr Duration kHandshakeTimeout = seconds(2);
}

DiscoveryAgent::DiscoveryAgent(Executor& executor,
                               std::shared_ptr<Transport> transport,
                               DiscoveryAgentConfig config)
    : executor_(executor),
      transport_(std::move(transport)),
      config_(std::move(config)),
      psk_(config_.pre_shared_key),
      rng_(config_.seed ^ transport_->local_id().raw(), /*stream=*/0xa9e2),
      heartbeat_timer_(executor, [this] { send_heartbeat(); }),
      handshake_timer_(executor, [this] { on_handshake_timeout(); }),
      loss_timer_(executor, [this] { check_loss(); }) {}

void DiscoveryAgent::start() {
  if (state_ != State::kIdle) return;
  state_ = State::kSearching;
}

void DiscoveryAgent::leave() {
  if (state_ == State::kJoined) {
    Packet p;
    p.type = PacketType::kLeave;
    p.src = id();
    p.dst = discovery_id_;
    transport_->send(discovery_id_, p.encode());
  }
  heartbeat_timer_.cancel();
  handshake_timer_.cancel();
  loss_timer_.cancel();
  bool was_joined = state_ == State::kJoined;
  state_ = State::kIdle;
  if (was_joined && on_left_) on_left_();
}

void DiscoveryAgent::handle_packet(ServiceId src, const Packet& packet) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "DiscoveryAgent::handle_packet");
  try {
    switch (packet.type) {
      case PacketType::kBeacon:
        on_beacon(packet);
        break;
      case PacketType::kJoinChallenge: {
        if (state_ != State::kWaitChallenge || src != discovery_id_) break;
        Reader r(packet.payload);
        Bytes nonce = r.blob16();
        Digest256 mac = admission_mac(psk_, nonce, id(), config_.device_type);
        Packet out;
        out.type = PacketType::kJoinResponse;
        out.src = id();
        out.dst = discovery_id_;
        Writer w;
        w.str(config_.device_type);
        w.str(config_.role);
        w.blob16(BytesView(mac.data(), mac.size()));
        // Trailing, back-compat: digest of the interest mirror this member
        // already holds (all zero = none) so an unchanged core confirms it
        // instead of re-pushing. Old services simply ignore the extra bytes.
        Digest256 held = table_digest_ ? table_digest_() : Digest256{};
        w.raw(BytesView(held.data(), held.size()));
        out.payload = std::move(w).take();
        transport_->send(discovery_id_, out.encode());
        state_ = State::kWaitAccept;
        handshake_timer_.arm_after(kHandshakeTimeout);
        break;
      }
      case PacketType::kJoinAccept: {
        if (state_ != State::kWaitAccept || src != discovery_id_) break;
        Reader r(packet.payload);
        heartbeat_interval_ = Duration(static_cast<std::int64_t>(r.u64()));
        (void)r.u64();  // cell's purge_after: informational
        bus_id_ = ServiceId(r.u48());
        // Session of the proxy channel created for this admission (0 when
        // the cell has no reservation wired): the floor for the member's
        // receiver, shutting out stale frames from earlier incarnations.
        bus_channel_session_ = r.remaining() >= 4 ? r.u32() : 0;
        // Trailing, back-compat: the core's promotion epoch. Raises the
        // fence so a deposed predecessor's beacons are ignored from now on.
        max_epoch_ = std::max(max_epoch_, r.remaining() >= 8 ? r.u64() : 0);
        state_ = State::kJoined;
        last_heard_ = executor_.now();
        session_ = rng_.next_u32() | 1U;  // nonzero
        ++stats_.joins;
        handshake_timer_.cancel();
        kLog.info(id().to_string(), " joined cell via bus ",
                  bus_id_.to_string());
        send_heartbeat();
        loss_timer_.arm_after(config_.cell_lost_after);
        if (on_joined_) on_joined_(bus_id_, session_);
        break;
      }
      case PacketType::kJoinReject:
        if (state_ == State::kWaitAccept && src == discovery_id_) {
          ++stats_.rejections;
          kLog.warn(id().to_string(), " join rejected");
          state_ = State::kSearching;
          handshake_timer_.cancel();
        } else if (state_ == State::kJoined && src == discovery_id_) {
          // Eviction notice: the cell purged us while we were unreachable.
          // Fall back to searching and re-join on the next beacon.
          kLog.info(id().to_string(), " evicted by cell; re-joining");
          declare_lost();
        }
        break;
      default:
        break;
    }
  } catch (const DecodeError& e) {
    kLog.warn("malformed discovery packet: ", e.what());
  }
}

void DiscoveryAgent::on_beacon(const Packet& p) {
  Reader r(p.payload);
  std::string cell = r.str();
  ServiceId advertised_bus(r.u48());
  // Trailing, back-compat: promotion epoch (0 = legacy beacon, unfenced).
  std::uint64_t epoch = r.remaining() >= 8 ? r.u64() : 0;
  if (cell != config_.cell_name) return;  // a different SMC's beacon
  ++stats_.beacons_heard;

  if (config_.fence_epochs && epoch != 0 && epoch < max_epoch_) {
    // A deposed core still beaconing (split brain): never follow the cell
    // backwards — its state predates the promotion.
    ++stats_.stale_beacons_ignored;
    return;
  }

  if (state_ == State::kJoined) {
    if (p.src == discovery_id_) {
      // Only the core we are joined to counts as cell liveness; a rival's
      // beacons must not mask the death of ours.
      last_heard_ = executor_.now();
    } else if (config_.fence_epochs && epoch > max_epoch_) {
      // A higher-epoch core beacons for our cell: ours was replaced by a
      // promoted standby. Re-home now instead of waiting out the loss
      // timer on a dead incarnation.
      max_epoch_ = epoch;
      ++stats_.rehomes;
      kLog.info(id().to_string(), " re-homing to promoted core (epoch ",
                std::to_string(epoch), ")");
      heartbeat_timer_.cancel();
      state_ = State::kSearching;
      if (on_left_) on_left_();
      discovery_id_ = p.src;
      bus_id_ = advertised_bus;
      last_heard_ = executor_.now();
      send_join_request();
    }
    return;
  }

  max_epoch_ = std::max(max_epoch_, epoch);
  last_heard_ = executor_.now();
  if (state_ == State::kSearching) {
    discovery_id_ = p.src;
    bus_id_ = advertised_bus;
    send_join_request();
  }
}

void DiscoveryAgent::send_join_request() {
  ++stats_.join_attempts;
  Packet out;
  out.type = PacketType::kJoinRequest;
  out.src = id();
  out.dst = discovery_id_;
  Writer w;
  w.str(config_.device_type);
  w.str(config_.role);
  out.payload = std::move(w).take();
  transport_->send(discovery_id_, out.encode());
  state_ = State::kWaitChallenge;
  handshake_timer_.arm_after(kHandshakeTimeout);
}

void DiscoveryAgent::on_handshake_timeout() {
  if (state_ == State::kWaitChallenge || state_ == State::kWaitAccept) {
    // Back to listening; the next beacon restarts the handshake.
    state_ = State::kSearching;
  }
}

void DiscoveryAgent::send_heartbeat() {
  if (state_ != State::kJoined) return;
  Packet p;
  p.type = PacketType::kHeartbeat;
  p.src = id();
  p.dst = discovery_id_;
  transport_->send(discovery_id_, p.encode());
  ++stats_.heartbeats_sent;
  heartbeat_timer_.arm_after(heartbeat_interval_);
}

void DiscoveryAgent::check_loss() {
  if (state_ != State::kJoined) return;
  if (executor_.now() - last_heard_ >= config_.cell_lost_after) {
    declare_lost();
  } else {
    loss_timer_.arm_after(config_.cell_lost_after);
  }
}

void DiscoveryAgent::declare_lost() {
  ++stats_.cell_losses;
  kLog.info(id().to_string(), " lost contact with cell; searching again");
  heartbeat_timer_.cancel();
  state_ = State::kSearching;
  if (on_left_) on_left_();
}

}  // namespace amuse
