// TranslatingProxy: a "complex proxy for a simple sensor" (§III-B).
//
// Speaks the raw device protocol with the member and fully translates in
// both directions:
//   device reading bytes → typed Event → bus (publish, with dedup + ack);
//   bus Event → command bytes → device (ordered stop-and-wait queue,
//   retransmitted until the device acknowledges — "events unacknowledged by
//   the device [are] resent by the proxy").
#pragma once

#include <deque>
#include <memory>

#include "common/metrics.hpp"
#include "proxy/device_codec.hpp"
#include "proxy/device_protocol.hpp"
#include "proxy/proxy.hpp"
#include "sim/timer.hpp"

namespace amuse {

struct TranslatingProxyConfig {
  /// First resend timeout; it doubles per resend, capped at 4 s.
  Duration resend_interval = milliseconds(250);
  int max_retries = 10;
  std::size_t max_queue = 1024;
};

class TranslatingProxy final : public Proxy {
 public:
  TranslatingProxy(BusPort& bus, MemberInfo info,
                   std::unique_ptr<DeviceCodec> codec,
                   TranslatingProxyConfig config = {});

  AMUSE_AFFINITY(core_executor)
  void deliver_event(const Event& event,
                     std::span<const std::uint64_t> matched) override;
  AMUSE_AFFINITY(core_executor) void on_datagram(BytesView data) override;
  AMUSE_AFFINITY(core_executor) void on_purge() override;
  [[nodiscard]] std::size_t pending() const override { return queue_.size(); }

  struct Stats {
    Counter readings_decoded;
    Counter readings_undecodable;
    Counter readings_duplicate;
    Counter commands_sent;
    Counter commands_acked;
    Counter command_retransmits;
    Counter events_untranslatable;
    Counter queue_overflow;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool stalled() const { return stalled_; }

 private:
  // start transmitting the queue head
  AMUSE_AFFINITY(core_executor) void pump();
  AMUSE_AFFINITY(core_executor) void transmit_head();
  AMUSE_AFFINITY(core_executor) void on_timeout();

  std::unique_ptr<DeviceCodec> codec_;
  TranslatingProxyConfig config_;

  // Device → bus.
  bool seen_any_reading_ = false;
  std::uint16_t last_reading_seq_ = 0;

  // Bus → device (stop-and-wait).
  std::deque<Bytes> queue_;  // encoded command payloads, head is in flight
  bool head_in_flight_ = false;
  std::uint16_t next_cmd_seq_ = 1;
  std::uint16_t head_seq_ = 0;
  Duration rto_;
  int retries_ = 0;
  Timer resend_timer_;
  bool stalled_ = false;

  Stats stats_;
};

}  // namespace amuse
