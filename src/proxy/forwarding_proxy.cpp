#include "proxy/forwarding_proxy.hpp"

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
      /*send_packet=*/
      [this](const Packet& p) {
        this->bus().send_datagram(p.dst, p.encode());
      },
      /*deliver=*/
      [this](BytesView message) { on_message(message); },
      /*on_fail=*/
      [this] {
        kLog.debug("member ", member_id().to_string(),
                   " unresponsive; queueing until purge or recovery");
      });
  // One pump round's DATA frames flush through the bus's batch surface
  // (and from there through one sendmmsg on a batching transport).
  channel_->set_send_frames([this](std::vector<Packet>& frames) {
    std::vector<Bytes> encodings;
    encodings.reserve(frames.size());
    for (const Packet& p : frames) encodings.push_back(p.encode());
    this->bus().send_datagram_batch(member_id(), encodings);
  });
  channel_->set_on_shed([this](BytesView message) { on_shed(message); });
  channel_->set_on_pressure([this](bool under_pressure) {
    this->bus().member_pressure(member_id(), under_pressure);
  });
}

void ForwardingProxy::deliver_event(const EncodedEvent& event,
                                    const std::vector<std::uint64_t>& matched) {
  // Encode-once fan-out: only the small per-member header (message type,
  // matched subscription ids, origin stamp) is built here; the event body
  // rides along as the publish-wide shared encoding.
  SharedPayload payload{
      BusMessage::encode_event_header(matched, event.event().origin()),
      event.shared_bytes()};
  if (!channel_->send(std::move(payload))) {
    // The channel counted the drop and fired the shed tap (the bus's
    // notify_shed already ran): accounted, never silent.
    kLog.warn("outbound budget exhausted for member ",
              member_id().to_string(), "; shed event ",
              event.event().type());
  }
}

void ForwardingProxy::on_datagram(BytesView data) {
  std::optional<Packet> p = Packet::decode(data);
  if (!p) return;  // corrupt or foreign frame
  channel_->on_packet(*p);
}

void ForwardingProxy::on_purge() { channel_->reset(); }

void ForwardingProxy::send_quench_update(const std::vector<Filter>& filters) {
  // Control class: a quench table is load-bearing protocol state — a full
  // data queue must never starve or shed it (a dropped table would
  // permanently desync the member's publish suppression).
  (void)channel_->send(BusMessage::quench_update(filters).encode(),
                       MsgClass::kControl);
}

void ForwardingProxy::send_flow_control(bool under_pressure) {
  (void)channel_->send(BusMessage::flow_control(under_pressure).encode(),
                       MsgClass::kControl);
}

void ForwardingProxy::send_interest_update(const InterestUpdate& update) {
  // Control class like the quench table: an interest table is routing
  // state — shedding one would silently partition the federation.
  (void)channel_->send(BusMessage::interest_update(update).encode(),
                       MsgClass::kControl);
}

void ForwardingProxy::send_repl_update(const ReplUpdate& update) {
  // Control class like the interest table: replicated core state is what
  // failover recovers from — shedding it would silently widen the
  // staleness window past the declared budget (DESIGN.md §13).
  (void)channel_->send(BusMessage::repl_update(update).encode(),
                       MsgClass::kControl);
}

void ForwardingProxy::on_shed(BytesView message) {
  // Only data-class messages are ever shed, and the only data-class
  // traffic on a proxy channel is kEvent deliveries.
  BusMessage m;
  try {
    m = BusMessage::decode(message);
  } catch (const DecodeError& e) {
    kLog.error("shed an undecodable message for ", member_id().to_string(),
               ": ", e.what());
    return;
  }
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

void ForwardingProxy::on_message(BytesView message) {
  BusMessage m;
  try {
    m = BusMessage::decode(message);
  } catch (const DecodeError& e) {
    kLog.warn("malformed bus message from ", member_id().to_string(), ": ",
              e.what());
    return;
  }
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
      // The only member → bus interest message is a resync request.
      if (m.interest && m.interest->request_resync) {
        bus().member_interest_resync(member_id());
      } else {
        kLog.warn("unexpected interest push from member ",
                  member_id().to_string());
      }
      break;
    case BusMsgType::kReplUpdate:
      // The only standby → bus repl message is a resync request.
      if (m.repl && m.repl->request_resync) {
        bus().member_repl_resync(member_id());
      } else {
        kLog.warn("unexpected repl push from member ",
                  member_id().to_string());
      }
      break;
    case BusMsgType::kEvent:
    case BusMsgType::kQuenchUpdate:
    case BusMsgType::kFlowControl:
    case BusMsgType::kReplSnapshot:
      // Bus-to-member messages are nonsense coming from a member.
      kLog.warn("unexpected ", to_string(m.type), " from member ",
                member_id().to_string());
      break;
  }
}

}  // namespace amuse
