#include "bus/bus_client.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"
#include "wire/packet.hpp"

namespace amuse {
namespace {
const Logger kLog("bus.client");
}

BusClient::BusClient(Executor& executor, std::shared_ptr<Transport> transport,
                     ServiceId bus, BusClientConfig config)
    : transport_(std::move(transport)),
      bus_(bus),
      config_(config),
      executor_(executor) {
  std::uint32_t session = config_.session;
  if (session == 0) {
    session = static_cast<std::uint32_t>(transport_->local_id().raw() ^
                                         0x5eb0a11eU);
  }
  channel_ = std::make_unique<ReliableChannel>(
      executor, transport_->local_id(), bus_, session, config_.channel,
      // A round reaches the kernel in one sendmmsg on batching transports.
      [this](std::span<const Transport::Datagram> frames) {
        transport_->send_batch(frames);
      },
      [this](const SharedBytes& message) { on_message(message); });
  if (config_.install_receive_handler) {
    transport_->set_receive_handler([this](ServiceId src, BytesView data) {
      if (std::optional<Packet> p = Packet::decode(data)) handle_packet(src, *p);
    });
  }
}

BusClient::~BusClient() {
  if (config_.install_receive_handler) {
    transport_->set_receive_handler(nullptr);
  }
}

void BusClient::handle_packet(ServiceId src, const Packet& packet) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::handle_packet");
  if (src != bus_) return;  // only the bus talks to us on this endpoint
  channel_->on_packet(packet);
}

std::uint64_t BusClient::subscribe(const Filter& filter, Handler handler) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::subscribe");
  std::uint64_t id = next_sub_id_++;
  handlers_.emplace_back(id,
                         std::make_unique<const Handler>(std::move(handler)));
  // Control class: subscription state must reach the bus even when the
  // outbound queue is saturated with event data.
  (void)channel_->send(BusMessage::encode_subscribe(id, filter),
                       MsgClass::kControl);
  return id;
}

const BusClient::Handler* BusClient::handler_of(std::uint64_t id) const {
  auto it = std::ranges::lower_bound(handlers_, id, {}, &Slot::first);
  return it != handlers_.end() && it->first == id ? it->second.get() : nullptr;
}

void BusClient::unsubscribe(std::uint64_t id) {
  auto it = std::ranges::lower_bound(handlers_, id, {}, &Slot::first);
  if (it == handlers_.end() || it->first != id) return;
  if (dispatching_ > 0) retired_.push_back(std::move(it->second));
  handlers_.erase(it);
  (void)channel_->send(BusMessage::unsubscribe(id).encode(),
                       MsgClass::kControl);
}

bool BusClient::publish(Event event) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::publish");
  event.set_publisher(transport_->local_id());
  event.set_publisher_seq(next_pub_seq_++);
  if (event.timestamp() == TimePoint{}) {
    event.set_timestamp(executor_.now());
  }
  // Fail open: while the mirror is unsynced (no table yet, a carried one
  // not yet confirmed, a resync pending) every event is sent.
  if (config_.quench && mirror_.synced() &&
      !mirror_.interests().matches_any(event)) {
    ++stats_.quenched;
    // The sequence number was consumed; per-sender FIFO at receivers is
    // judged on delivered events only, so gaps from quenching are fine.
    return false;
  }
  ++stats_.published;
  // The message is the publish header, written inline, in front of the
  // event's body, which the channel queues by reference.
  SharedPayload message(event.body());
  BusMessage::write_event_header(
      message.resize_head(BusMessage::event_header_size(
          BusMsgType::kPublish, 0, event.origin())),
      BusMsgType::kPublish, {}, event.origin());
  if (!channel_->send(std::move(message))) {
    kLog.warn("publish queue full towards bus ", bus_.to_string());
  }
  if (pressured_) {
    // Still sent — the bus sheds member-side, not us — but tell the caller
    // the cell asked publishers to back off.
    ++stats_.pressured_publishes;
    return false;
  }
  return true;
}

void BusClient::request_resync(BusMsgType stream) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::request_resync");
  ++stats_.resyncs;
  (void)channel_->send(BusMessage::resync_request(stream).encode(),
                       MsgClass::kControl);
}

void BusClient::on_message(const SharedBytes& message) {
  std::optional<BusMessage> decoded;
  try {
    decoded.emplace(BusMessage::decode(message));
  } catch (const DecodeError& e) {
    kLog.warn("malformed message from bus: ", e.what());
    return;
  }
  BusMessage& m = *decoded;
  switch (m.type) {
    case BusMsgType::kEvent: {
      ++stats_.events_received;
      if (delivery_filter_ && !delivery_filter_(*m.event)) {
        // A copy this member has already seen (HA re-delivery after a
        // failover): exactly-once survives the promotion.
        ++stats_.deliveries_filtered;
        break;
      }
      // An id unsubscribed while the event was in flight has no handler
      // any more: the event is dropped for it.
      ++dispatching_;
      for (std::uint64_t id : m.matched) {
        const Handler* handler = handler_of(id);
        if (handler == nullptr) continue;
        ++stats_.handler_invocations;
        (*handler)(*m.event);
      }
      if (--dispatching_ == 0) retired_.clear();
      break;
    }
    case BusMsgType::kInterestUpdate: {
      if (!m.interest || m.interest->request_resync) {
        kLog.warn("nonsense interest message from bus");
        break;
      }
      if (mirror_.apply(*m.interest) == InterestMirror::Apply::kApplied) {
        ++stats_.interest_updates;
        if (on_interest_) on_interest_(mirror_.interests());
        break;
      }
      // The frame did not verify: never route (or quench) on a suspect
      // table — ask for a full one.
      kLog.debug("interest mirror lost sync at v",
                 std::to_string(m.interest->version), "; requesting resync");
      request_resync(BusMsgType::kInterestUpdate);
      break;
    }
    case BusMsgType::kReplUpdate:
      if (!m.repl || m.repl->request_resync || !on_repl_) {
        kLog.warn("unexpected repl message from bus");
        break;
      }
      ++stats_.repl_updates;
      on_repl_(*m.repl);
      break;
    case BusMsgType::kFlowControl:
      ++stats_.flow_signals;
      if (pressured_ != m.pressure) {
        pressured_ = m.pressure;
        kLog.debug(m.pressure ? "bus raised flow-control pressure"
                              : "bus released flow-control pressure");
        if (on_pressure_) on_pressure_(m.pressure);
      }
      break;
    default:
      kLog.warn("unexpected ", to_string(m.type), " from bus");
      break;
  }
}

}  // namespace amuse
