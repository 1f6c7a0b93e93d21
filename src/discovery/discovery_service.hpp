// The discovery service (§II-B).
//
// Runs beside the event bus on the cell's core host, on its *own* transport
// endpoint: "the discovery protocol does not use the event bus for
// monitoring group membership" — it only *informs* the cell of membership
// changes by publishing "New Member" / "Purge Member" events.
//
// Protocol (all unreliable datagrams; every step idempotent):
//   service --broadcast--> BEACON {cell, bus_id}          every beacon_interval
//   device  ------------> JOIN_REQ {device_type, role}
//   service ------------> JOIN_CHAL {nonce}
//   device  ------------> JOIN_RESP {device_type, role, hmac}
//   service ------------> JOIN_ACCEPT {heartbeat, purge_after, bus_id,
//                                      channel_session}
//                          (or JOIN_REJECT {reason})
//   device  ------------> HEARTBEAT                        every heartbeat
//   device  ------------> LEAVE                            graceful exit
//
// Admission is authenticated with HMAC-SHA256 over (nonce ‖ device-id ‖
// device_type) keyed by the cell's pre-shared key ("employing
// authentication specific to the application").
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "discovery/membership.hpp"
#include "net/transport.hpp"
#include "sim/timer.hpp"

namespace amuse {

/// Event types the discovery service publishes onto the bus.
namespace smc_events {
inline constexpr const char* kNewMember = "smc.member.new";
inline constexpr const char* kPurgeMember = "smc.member.purge";
inline constexpr const char* kSuspectMember = "smc.member.suspect";
inline constexpr const char* kRecoveredMember = "smc.member.recovered";
}  // namespace smc_events

/// Passive instrumentation taps on the membership lifecycle, fired *in
/// addition to* the single-consumer set_on_* callbacks the SMC composition
/// owns. The torture harness's oracle listens here for purge/rejoin edges
/// (with reasons and rejoin flags) without stealing the cell's wiring.
struct DiscoveryObserver {
  /// `rejoin` is true when the id was already a member (a re-admission).
  std::function<void(const MemberInfo&, bool rejoin)> on_admit;
  std::function<void(const MemberInfo&, const std::string& reason)> on_purge;
  std::function<void(const MemberInfo&)> on_suspect;
  std::function<void(const MemberInfo&)> on_recovered;
};

struct DiscoveryConfig {
  std::string cell_name = "smc";
  Bytes pre_shared_key;
  Duration beacon_interval = seconds(1);
  /// Device heartbeat period handed out in JOIN_ACCEPT.
  Duration heartbeat_interval = seconds(1);
  /// Silence before a member is suspected (transient-disconnect masking).
  Duration suspect_after = seconds(3);
  /// Silence before a "Purge Member" event is launched (§VI scenario).
  Duration purge_after = seconds(10);
  /// Membership sweep cadence.
  Duration sweep_interval = milliseconds(500);
  std::uint64_t seed = 0x5eed;
  /// Promotion epoch stamped into beacons and JoinAccepts (trailing,
  /// back-compat fields). 0 = legacy cell, no HA fencing. A promoted
  /// standby runs at its predecessor's epoch + 1. A cell that speaks an
  /// epoch also steps down (stops beaconing, fires on_deposed) when a
  /// rival core beacons this cell's name with a higher one — the
  /// split-brain resolution of DESIGN.md §13.
  std::uint64_t epoch = 0;
};

/// Builds the admission MAC: HMAC-SHA256(psk, nonce ‖ id(48-bit BE) ‖ type),
/// under `psk` keyed once.
[[nodiscard]] Digest256 admission_mac(const HmacSha256& psk, BytesView nonce,
                                      ServiceId device,
                                      std::string_view device_type);

class DiscoveryService {
 public:
  using NewMemberFn = std::function<void(const MemberInfo&)>;
  using PurgeMemberFn = std::function<void(ServiceId)>;
  using MemberStateFn = std::function<void(const MemberInfo&)>;
  /// Publishes a membership event onto the bus (wired to
  /// EventBus::publish_local by the SMC composition).
  using PublishFn = std::function<void(Event)>;
  /// Reserves the reliable-channel session the member's new proxy will use
  /// (wired to EventBus::reserve_channel_session by the SMC composition),
  /// so the JoinAccept can tell the device which session to expect and its
  /// receiver can reject stale frames from earlier proxy incarnations.
  using SessionFn = std::function<std::uint32_t(ServiceId)>;

  DiscoveryService(Executor& executor, std::shared_ptr<Transport> transport,
                   ServiceId bus_id, DiscoveryConfig config);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Starts beaconing and membership sweeps.
  AMUSE_AFFINITY(core_executor) void start();
  AMUSE_AFFINITY(core_executor) void stop();

  void set_on_new_member(NewMemberFn fn) { on_new_member_ = std::move(fn); }
  void set_on_purge_member(PurgeMemberFn fn) { on_purge_ = std::move(fn); }
  void set_on_suspect(MemberStateFn fn) { on_suspect_ = std::move(fn); }
  void set_on_recovered(MemberStateFn fn) { on_recovered_ = std::move(fn); }
  void set_publisher(PublishFn fn) { publish_ = std::move(fn); }
  void set_session_provider(SessionFn fn) {
    session_provider_ = std::move(fn);
  }
  /// Instrumentation tap (see DiscoveryObserver); independent of the
  /// set_on_* wiring above.
  void set_observer(DiscoveryObserver observer) {
    observer_ = std::move(observer);
  }
  /// Fired once when a rival core with a higher epoch deposes this one
  /// (nonzero epoch only). The SMC composition wires it to
  /// EventBus::step_down().
  void set_on_deposed(std::function<void()> fn) {
    on_deposed_ = std::move(fn);
  }
  /// True once a rival's higher epoch has deposed this core.
  [[nodiscard]] bool deposed() const { return deposed_; }

  /// Administrative removal (e.g. a policy decision), same path as timeout.
  AMUSE_AFFINITY(core_executor)
  void purge(ServiceId id, const std::string& reason);

  [[nodiscard]] const Membership& membership() const { return membership_; }
  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }

  struct Stats {
    Counter beacons_sent;
    Counter join_requests;
    Counter challenges_sent;
    Counter joins_accepted;
    Counter joins_rejected;
    Counter heartbeats;
    Counter suspects;
    Counter recoveries;
    Counter purges;
    Counter leaves;
    Counter evictions_notified;
    Counter rival_step_downs;            // deposed by a higher-epoch rival
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct PendingJoin {
    Bytes nonce;
    TimePoint expires;
  };

  AMUSE_AFFINITY(core_executor) void on_datagram(ServiceId src, BytesView data);
  AMUSE_AFFINITY(core_executor) void send_beacon();
  AMUSE_AFFINITY(core_executor) void sweep();
  AMUSE_AFFINITY(core_executor)
  void admit(ServiceId device, const std::string& device_type,
             const std::string& role, const Digest256& table_digest);
  AMUSE_AFFINITY(core_executor)
  void do_purge(const MemberInfo& info, const std::string& reason);

  Executor& executor_;
  std::shared_ptr<Transport> transport_;
  ServiceId bus_id_;
  DiscoveryConfig config_;
  HmacSha256 psk_;  // config_.pre_shared_key, keyed
  Rng rng_;
  Membership membership_;
  std::unordered_map<ServiceId, PendingJoin> pending_;
  NewMemberFn on_new_member_;
  PurgeMemberFn on_purge_;
  MemberStateFn on_suspect_;
  MemberStateFn on_recovered_;
  DiscoveryObserver observer_;
  PublishFn publish_;
  SessionFn session_provider_;
  std::function<void()> on_deposed_;
  Timer beacon_timer_;
  Timer sweep_timer_;
  bool running_ = false;
  bool deposed_ = false;
  Stats stats_;
};

}  // namespace amuse
