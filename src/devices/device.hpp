// RawDevice: base class for the very simple devices the SMC targets —
// sensors and actuators that cannot run the bus wire protocol and instead
// speak the tiny DeviceFrame protocol with their translating proxy
// (paper §III-B, §IV "building test sensors … allowing the proxies to
// translate/acknowledge data as required").
//
// A RawDevice owns one transport endpoint, joins the cell through a
// DiscoveryAgent, then periodically emits readings (optionally
// retransmitted until the proxy acknowledges) and executes commands pushed
// by its proxy.
#pragma once

#include <memory>
#include <optional>

#include "discovery/discovery_agent.hpp"
#include "proxy/device_protocol.hpp"
#include "sim/timer.hpp"

namespace amuse {

struct RawDeviceConfig {
  DiscoveryAgentConfig agent;
  /// Period between readings; zero disables the reading loop (actuators).
  Duration reading_interval = seconds(1);
  /// Whether this device wants its readings acknowledged by the proxy
  /// before it considers them delivered (retransmitting meanwhile).
  bool readings_need_ack = true;
  int max_retries = 6;
};

class RawDevice {
 public:
  RawDevice(Executor& executor, std::shared_ptr<Transport> transport,
            RawDeviceConfig config);
  virtual ~RawDevice();

  RawDevice(const RawDevice&) = delete;
  RawDevice& operator=(const RawDevice&) = delete;

  /// Starts cell discovery; readings begin after the device has joined.
  void start();
  void leave();

  [[nodiscard]] bool joined() const { return agent_->joined(); }
  [[nodiscard]] ServiceId id() const { return transport_->local_id(); }
  [[nodiscard]] DiscoveryAgent& agent() { return *agent_; }

  struct Stats {
    Counter readings_sent;
    Counter readings_acked;
    Counter reading_retransmits;
    Counter readings_dropped;            // retries exhausted
    Counter commands_received;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  /// Produces the next reading payload; nullopt skips this cycle.
  [[nodiscard]] virtual std::optional<Bytes> next_reading() = 0;
  /// Executes a command from the proxy (already deduplicated and acked).
  virtual void on_command(BytesView payload) = 0;

  [[nodiscard]] Executor& executor() { return executor_; }
  /// Immediately emits one reading outside the periodic schedule (e.g. an
  /// actuator's status report after executing a command).
  void emit_reading(Bytes payload);

 private:
  void reading_tick();
  void send_reading(Bytes payload);
  void transmit_pending();
  void on_ack_timeout();
  void on_datagram(ServiceId src, BytesView data);

  Executor& executor_;
  std::shared_ptr<Transport> transport_;
  RawDeviceConfig config_;
  std::unique_ptr<DiscoveryAgent> agent_;

  std::uint16_t next_seq_ = 1;
  std::optional<DeviceFrame> pending_;  // awaiting ack (stop-and-wait)
  Duration rto_;
  int retries_ = 0;
  Timer ack_timer_;
  Timer reading_timer_;

  std::uint16_t last_cmd_seq_ = 0;
  bool seen_cmd_ = false;

  Stats stats_;
};

}  // namespace amuse
