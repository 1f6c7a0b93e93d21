// DiscoveryAgent: the device-side half of the discovery protocol.
//
// Listens for cell beacons on the agreed broadcast channel, runs the
// authenticated join handshake, then keeps the membership alive with
// heartbeats. If beacons and unicast traffic go silent long enough the
// agent assumes it is out of range and reverts to searching; when the cell
// is heard again it re-joins with a fresh session — the bus sees that as a
// purge-then-new-member cycle (or a masked transient, if the silence was
// shorter than the cell's purge timeout).
#pragma once

#include <functional>
#include <memory>

#include "common/annotations.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "net/transport.hpp"
#include "sim/timer.hpp"
#include "wire/packet.hpp"

namespace amuse {

struct DiscoveryAgentConfig {
  std::string cell_name = "smc";  // only join this cell
  Bytes pre_shared_key;
  std::string device_type = "service";
  std::string role = "service";
  /// Declare the cell lost after this much total silence.
  Duration cell_lost_after = seconds(5);
  std::uint64_t seed = 0xa9e27;
  /// Honour promotion epochs in beacons (DESIGN.md §13): never follow a
  /// beacon whose epoch is below the highest seen (a deposed core still
  /// beaconing after a split brain), and re-home immediately when a
  /// higher-epoch core replaces the one we are joined to. Off = legacy
  /// behaviour (epochs ignored) — the torture suite's sensitivity proof
  /// reverts exactly this flag.
  bool fence_epochs = true;
};

class DiscoveryAgent {
 public:
  /// joined(bus_id, session): the member may now construct its BusClient.
  using JoinedFn = std::function<void(ServiceId bus, std::uint32_t session)>;
  using LeftFn = std::function<void()>;

  DiscoveryAgent(Executor& executor, std::shared_ptr<Transport> transport,
                 DiscoveryAgentConfig config);

  DiscoveryAgent(const DiscoveryAgent&) = delete;
  DiscoveryAgent& operator=(const DiscoveryAgent&) = delete;

  /// Begins listening for beacons (joins automatically when one is heard).
  AMUSE_AFFINITY(member_executor) void start();
  /// Graceful exit: sends LEAVE and stops heartbeats.
  AMUSE_AFFINITY(member_executor) void leave();

  void set_on_joined(JoinedFn fn) { on_joined_ = std::move(fn); }
  void set_on_left(LeftFn fn) { on_left_ = std::move(fn); }
  /// Canonical digest of the interest mirror the member already holds (all
  /// zero = none); appended to the JOIN_RESP so an unchanged core confirms
  /// it instead of re-pushing the table on re-home (DESIGN.md §13).
  using TableDigestFn = std::function<Digest256()>;
  void set_table_digest_provider(TableDigestFn fn) {
    table_digest_ = std::move(fn);
  }

  /// Feeds one decoded packet. The agent never owns the endpoint: its
  /// owner's receive handler decodes each datagram once and muxes it.
  AMUSE_AFFINITY(member_executor)
  void handle_packet(ServiceId src, const Packet& packet);

  enum class State { kIdle, kSearching, kWaitChallenge, kWaitAccept, kJoined };
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool joined() const { return state_ == State::kJoined; }
  [[nodiscard]] ServiceId bus_id() const { return bus_id_; }
  /// Session the cell reserved for this admission's proxy channel (from the
  /// JoinAccept; 0 when the cell predates the field or has none wired). The
  /// member's receiver uses it as its minimum acceptable peer session.
  [[nodiscard]] std::uint32_t bus_channel_session() const {
    return bus_channel_session_;
  }
  /// Highest promotion epoch heard so far (0 until an epoch-stamped beacon
  /// or JoinAccept arrives).
  [[nodiscard]] std::uint64_t max_epoch() const { return max_epoch_; }
  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }

  struct Stats {
    Counter beacons_heard;
    Counter join_attempts;
    Counter joins;
    Counter rejections;
    Counter cell_losses;
    Counter heartbeats_sent;
    Counter stale_beacons_ignored;            // fenced (epoch below max)
    Counter rehomes;            // left a live join for a higher-epoch core
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  AMUSE_AFFINITY(member_executor) void on_beacon(const Packet& p);
  AMUSE_AFFINITY(member_executor) void send_join_request();
  AMUSE_AFFINITY(member_executor) void send_heartbeat();
  void on_handshake_timeout();
  void check_loss();
  void declare_lost();

  Executor& executor_;
  std::shared_ptr<Transport> transport_;
  DiscoveryAgentConfig config_;
  HmacSha256 psk_;  // config_.pre_shared_key, keyed
  Rng rng_;
  State state_ = State::kIdle;
  ServiceId discovery_id_;
  ServiceId bus_id_;
  Duration heartbeat_interval_ = seconds(1);
  std::uint32_t session_ = 0;  // fresh per join
  std::uint32_t bus_channel_session_ = 0;  // reserved proxy session
  std::uint64_t max_epoch_ = 0;  // highest promotion epoch heard
  TimePoint last_heard_{};
  JoinedFn on_joined_;
  LeftFn on_left_;
  TableDigestFn table_digest_;
  Timer heartbeat_timer_;
  Timer handshake_timer_;
  Timer loss_timer_;
  Stats stats_;
};

}  // namespace amuse
