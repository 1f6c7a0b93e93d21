#include "proxy/forwarding_proxy.hpp"

#include <optional>

#include "common/log.hpp"
#include "wire/packet.hpp"

namespace amuse {
namespace {
const Logger kLog("proxy.forwarding");
}

ForwardingProxy::ForwardingProxy(BusPort& bus, MemberInfo info)
    : Proxy(bus, std::move(info)) {
  channel_ = std::make_unique<ReliableChannel>(
      bus.executor(), bus.bus_id(), member_id(),
      bus.next_channel_session(member_id()),
      bus.channel_config(),
      /*send=*/
      [this](std::span<const Transport::Datagram> frames) {
        this->bus().send_datagrams(frames);
      },
      /*deliver=*/
      [this](const SharedBytes& message) { on_message(message); },
      /*on_fail=*/
      [this] {
        kLog.debug("member ", member_id().to_string(),
                   " unresponsive; queueing until purge or recovery");
      });
  channel_->set_on_shed([this](BytesView message) { on_shed(message); });
  channel_->set_on_pressure([this](bool under_pressure) {
    this->bus().member_pressure(member_id(), under_pressure);
  });
}

void ForwardingProxy::deliver_event(const Event& event,
                                    std::span<const std::uint64_t> matched) {
  // Only the small per-member header (message type, matched subscription
  // ids, origin stamp) is written here, inline in the queue entry; the
  // event body rides along as the publish-wide shared bytes.
  SharedPayload payload(event.body());
  BusMessage::write_event_header(
      payload.resize_head(BusMessage::event_header_size(
          BusMsgType::kEvent, matched.size(), event.origin())),
      BusMsgType::kEvent, matched, event.origin());
  if (!channel_->send(std::move(payload))) {
    // The channel counted the drop and fired the shed tap (the bus's
    // notify_shed already ran): accounted, never silent.
    kLog.warn("outbound budget exhausted for member ",
              member_id().to_string(), "; shed event ", event.type());
  }
}

void ForwardingProxy::on_datagram(BytesView data) {
  std::optional<Packet> p = Packet::decode(data);
  if (!p) return;  // corrupt or foreign frame
  channel_->on_packet(*p);
}

void ForwardingProxy::on_purge() { channel_->reset(); }

void ForwardingProxy::send_control(const BusMessage& message) {
  // Control class: filter tables are routing state (shedding one would
  // desync a member's quenching or silently partition the federation), and
  // replicated core state is what failover recovers from (shedding it would
  // widen the staleness window past the declared budget, DESIGN.md §13).
  (void)channel_->send(message.encode(), MsgClass::kControl);
}

void ForwardingProxy::on_shed(BytesView message) {
  // Only data-class messages are ever shed, and the only data-class
  // traffic on a proxy channel is kEvent deliveries.
  std::optional<BusMessage> decoded;
  try {
    decoded.emplace(BusMessage::decode(message));
  } catch (const DecodeError& e) {
    kLog.error("shed an undecodable message for ", member_id().to_string(),
               ": ", e.what());
    return;
  }
  const BusMessage& m = *decoded;
  if (m.type != BusMsgType::kEvent || !m.event) {
    kLog.error("shed a non-event ", to_string(m.type), " for ",
               member_id().to_string());
    return;
  }
  bus().notify_shed(member_id(), *m.event);
}

std::size_t ForwardingProxy::pending() const {
  return channel_->queued() + channel_->in_flight();
}

void ForwardingProxy::on_message(const SharedBytes& message) {
  std::optional<BusMessage> decoded;
  try {
    decoded.emplace(BusMessage::decode(message));
  } catch (const DecodeError& e) {
    kLog.warn("malformed bus message from ", member_id().to_string(), ": ",
              e.what());
    return;
  }
  BusMessage& m = *decoded;
  switch (m.type) {
    case BusMsgType::kPublish:
      bus().member_publish(member_id(), std::move(*m.event));
      break;
    case BusMsgType::kSubscribe:
      bus().member_subscribe(member_id(), m.sub_id, std::move(*m.filter));
      break;
    case BusMsgType::kUnsubscribe:
      bus().member_unsubscribe(member_id(), m.sub_id);
      break;
    case BusMsgType::kInterestUpdate:
    case BusMsgType::kReplUpdate:
      // The only member → bus state-stream frame is a resync request.
      if (m.stream()->request_resync) {
        bus().member_resync(member_id(), m.type);
      } else {
        kLog.warn("unexpected ", to_string(m.type), " push from member ",
                  member_id().to_string());
      }
      break;
    case BusMsgType::kEvent:
    case BusMsgType::kFlowControl:
      // Bus-to-member messages are nonsense coming from a member.
      kLog.warn("unexpected ", to_string(m.type), " from member ",
                member_id().to_string());
      break;
  }
}

}  // namespace amuse
