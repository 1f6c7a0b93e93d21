// ForwardingProxy: "simple proxies for complex sensors (resembling a mere
// forwarding mechanism between the services)" (§III-B).
//
// The member speaks the bus wire protocol itself (a BusClient); the proxy's
// job is the generic part only — the reliable, ordered, exactly-once
// channel with its persistent outbound queue, and dispatch of the member's
// bus messages (publish/subscribe/unsubscribe) into the core. A delivery
// is the member's own small header, written inline, in front of the
// event's shared body: nothing is serialised or copied per member.
#pragma once

#include <memory>

#include "bus/messages.hpp"
#include "proxy/proxy.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {

class ForwardingProxy final : public Proxy {
 public:
  ForwardingProxy(BusPort& bus, MemberInfo info);

  AMUSE_AFFINITY(core_executor)
  void deliver_event(const Event& event,
                     std::span<const std::uint64_t> matched) override;
  AMUSE_AFFINITY(core_executor) void on_datagram(BytesView data) override;
  AMUSE_AFFINITY(core_executor) void on_purge() override;
  AMUSE_AFFINITY(core_executor)
  void send_control(const BusMessage& message) override;
  [[nodiscard]] std::size_t pending() const override;
  [[nodiscard]] std::size_t retained_bytes() const override {
    return channel_->retained_bytes();
  }
  AMUSE_AFFINITY(core_executor) bool shed_oldest_data() override {
    return channel_->shed_oldest_data();
  }
  [[nodiscard]] bool delivery_stalled() const override {
    return channel_->failed();
  }

  [[nodiscard]] const ReliableChannelStats& channel_stats() const {
    return channel_->stats();
  }
  /// True when retransmissions to the member are exhausted and the channel
  /// is waiting for the member (or the discovery service's verdict).
  [[nodiscard]] bool stalled() const { return channel_->failed(); }
  /// Restart delivery attempts (the member was heard from again).
  void resume() { channel_->poke(); }

 private:
  AMUSE_AFFINITY(core_executor) void on_message(const SharedBytes& message);
  AMUSE_AFFINITY(core_executor) void on_shed(BytesView message);

  std::unique_ptr<ReliableChannel> channel_;
};

}  // namespace amuse
