// SmcMember: the member-side runtime for services that speak the bus wire
// protocol (nurse consoles, analysis services, smart sensors).
//
// Owns one transport endpoint and muxes it between the discovery agent
// (beacons, handshake, heartbeats) and the bus client (reliable event
// traffic). Subscriptions registered here are *durable across re-joins*:
// when the member roams out of range and later re-joins the cell (with a
// fresh session), every subscription is re-registered automatically.
// Publishes while out of cell range are buffered (bounded) and flushed on
// (re-)join. The same buffer absorbs publishes while the bus announces
// flow-control pressure: a well-behaved publisher defers instead of piling
// more data onto an overloaded cell, and flushes on release.
#pragma once

#include <deque>
#include <memory>

#include "bus/bus_client.hpp"
#include "common/annotations.hpp"
#include "discovery/discovery_agent.hpp"

namespace amuse {

struct SmcMemberConfig {
  DiscoveryAgentConfig agent;
  ReliableChannelConfig channel;
  bool quench = false;
  /// Events buffered while not joined (0 = drop when out of range).
  std::size_t offline_buffer = 256;
};

class SmcMember {
 public:
  using Handler = BusClient::Handler;

  SmcMember(Executor& executor, std::shared_ptr<Transport> transport,
            SmcMemberConfig config);
  ~SmcMember();

  SmcMember(const SmcMember&) = delete;
  SmcMember& operator=(const SmcMember&) = delete;

  /// Starts searching for the cell.
  AMUSE_AFFINITY(member_executor) void start();
  /// Graceful leave.
  AMUSE_AFFINITY(member_executor) void leave();

  AMUSE_AFFINITY(member_executor)
  std::uint64_t subscribe(const Filter& filter, Handler handler);
  AMUSE_AFFINITY(member_executor) void unsubscribe(std::uint64_t id);
  /// Publishes now if joined and unpressured, otherwise buffers (returns
  /// false when the event was dropped because the buffer is full or the
  /// publish was quenched).
  AMUSE_AFFINITY(member_executor) bool publish(Event event);

  [[nodiscard]] bool joined() const { return client_ != nullptr; }
  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }
  [[nodiscard]] DiscoveryAgent& agent() { return *agent_; }
  /// Null while not joined.
  [[nodiscard]] BusClient* client() { return client_.get(); }

  void set_on_joined(std::function<void()> fn) { on_joined_ = std::move(fn); }
  void set_on_left(std::function<void()> fn) { on_left_ = std::move(fn); }
  /// Forwarded from the bus client: true = the cell asked us to back off.
  void set_on_pressure(std::function<void(bool)> fn) {
    on_pressure_ = std::move(fn);
  }
  /// Forwarded from the bus client: fires with the cell's aggregated
  /// interest table after every cleanly applied push (gateway members
  /// only). Survives re-joins — the callback is re-installed on every
  /// fresh client, and admission always pushes a full table.
  void set_on_interest(BusClient::InterestFn fn) {
    on_interest_ = std::move(fn);
    if (client_) client_->set_on_interest(on_interest_);
  }

  /// Events waiting in the offline/pressure buffer.
  [[nodiscard]] std::size_t offline_pending() const { return offline_.size(); }

  struct Stats {
    std::uint64_t joins = 0;
    std::uint64_t buffered = 0;
    std::uint64_t buffer_dropped = 0;
    std::uint64_t flushed = 0;
    std::uint64_t pressure_deferrals = 0;  // publishes buffered under pressure
    std::uint64_t ha_duplicates_dropped = 0;  // origin dedup hits —
                                              // re-deliveries already seen
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct DesiredSub {
    Filter filter;
    Handler handler;
  };

  AMUSE_AFFINITY(member_executor)
  void on_cell_joined(ServiceId bus, std::uint32_t session);
  AMUSE_AFFINITY(member_executor) void on_cell_left();
  AMUSE_AFFINITY(member_executor) void flush_offline();

  Executor& executor_;
  std::shared_ptr<Transport> transport_;
  SmcMemberConfig config_;
  std::unique_ptr<DiscoveryAgent> agent_;
  std::unique_ptr<BusClient> client_;
  std::map<std::uint64_t, DesiredSub> desired_;
  std::map<std::uint64_t, std::uint64_t> live_ids_;  // desired id → client id
  std::uint64_t next_id_ = 1;
  std::deque<Event> offline_;
  std::function<void()> on_joined_;
  std::function<void()> on_left_;
  std::function<void(bool)> on_pressure_;
  BusClient::InterestFn on_interest_;
  // Re-delivery dedup on the full origin stamp. Deliberately *outside* the
  // per-join client: exactly-once across a failover depends on remembering
  // pre-crash deliveries through the re-home.
  OriginDedup origin_dedup_;
  // Canonical digest of the quench table held at the last leave; presented
  // in the next JOIN_RESP so an unchanged table is not re-pushed.
  Digest256 quench_stash_{};
  Stats stats_;
};

}  // namespace amuse
