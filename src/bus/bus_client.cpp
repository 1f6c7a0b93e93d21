#include "bus/bus_client.hpp"

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
      [this](const Packet& p) { transport_->send(p.dst, p.encode()); },
      [this](BytesView message) { on_message(message); });
  // Burst sink: a pump round's frames reach the kernel in one sendmmsg on
  // batching transports; non-batching transports loop, byte-identical.
  channel_->set_send_frames([this](std::vector<Packet>& frames) {
    std::vector<Bytes> encodings;
    encodings.reserve(frames.size());
    std::vector<Transport::Datagram> burst;
    burst.reserve(frames.size());
    for (const Packet& p : frames) {
      encodings.push_back(p.encode());
      burst.push_back(Transport::Datagram{p.dst, BytesView(encodings.back())});
    }
    transport_->send_batch(burst);
  });
  if (config_.install_receive_handler) {
    transport_->set_receive_handler([this](ServiceId src, BytesView data) {
      handle_datagram(src, data);
    });
  }
}

BusClient::~BusClient() {
  if (config_.install_receive_handler) {
    transport_->set_receive_handler(nullptr);
  }
}

void BusClient::handle_datagram(ServiceId src, BytesView data) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::handle_datagram");
  if (src != bus_) return;  // only the bus talks to us on this endpoint
  std::optional<Packet> p = Packet::decode(data);
  if (!p) return;
  channel_->on_packet(*p);
}

std::uint64_t BusClient::subscribe(const Filter& filter, Handler handler) {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::subscribe");
  std::uint64_t id = next_sub_id_++;
  handlers_.emplace(id, std::move(handler));
  // Control class: subscription state must reach the bus even when the
  // outbound queue is saturated with event data.
  (void)channel_->send(BusMessage::subscribe(id, filter).encode(),
                       MsgClass::kControl);
  return id;
}

void BusClient::unsubscribe(std::uint64_t id) {
  if (handlers_.erase(id) == 0) return;
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
  if (config_.quench && !quench_.wanted(event)) {
    ++stats_.quenched;
    // The sequence number was consumed; per-sender FIFO at receivers is
    // judged on delivered events only, so gaps from quenching are fine.
    return false;
  }
  ++stats_.published;
  if (!channel_->send(BusMessage::encode_publish(event))) {
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

void BusClient::set_unclaimed_handler(Handler handler) {
  unclaimed_ = std::move(handler);
}

void BusClient::request_repl_resync() {
  AMUSE_ASSERT_ON_EXECUTOR(executor_, "BusClient::request_repl_resync");
  ++stats_.repl_resyncs;
  (void)channel_->send(BusMessage::repl_resync_request().encode(),
                       MsgClass::kControl);
}

void BusClient::on_message(BytesView message) {
  BusMessage m;
  try {
    m = BusMessage::decode(message);
  } catch (const DecodeError& e) {
    kLog.warn("malformed message from bus: ", e.what());
    return;
  }
  switch (m.type) {
    case BusMsgType::kEvent: {
      ++stats_.events_received;
      if (delivery_filter_ && !delivery_filter_(*m.event)) {
        // A copy this member has already seen (HA re-delivery after a
        // failover): exactly-once survives the promotion.
        ++stats_.deliveries_filtered;
        break;
      }
      bool claimed = false;
      for (std::uint64_t id : m.matched) {
        auto it = handlers_.find(id);
        if (it == handlers_.end()) continue;
        claimed = true;
        ++stats_.handler_invocations;
        it->second(*m.event);
      }
      if (!claimed && unclaimed_) unclaimed_(*m.event);
      break;
    }
    case BusMsgType::kQuenchUpdate:
      quench_.update(m.quench_filters);
      // Remember the canonical identity of what we hold: a re-join after a
      // core failover presents it so an unchanged table is not re-pushed.
      quench_digest_ = FilterSet(m.quench_filters).digest();
      quench_received_ = true;
      break;
    case BusMsgType::kInterestUpdate: {
      if (!m.interest || m.interest->request_resync) {
        kLog.warn("nonsense interest message from bus");
        break;
      }
      switch (mirror_.apply(*m.interest)) {
        case InterestMirror::Apply::kApplied:
          ++stats_.interest_updates;
          if (on_interest_) on_interest_(mirror_.interests());
          break;
        case InterestMirror::Apply::kResyncNeeded:
          // Version gap or digest mismatch: never route on a suspect
          // table — ask for a full one. Control class, like the push.
          ++stats_.interest_resyncs;
          kLog.debug("interest mirror lost sync at v",
                     std::to_string(m.interest->version),
                     "; requesting resync");
          (void)channel_->send(BusMessage::interest_resync_request().encode(),
                               MsgClass::kControl);
          break;
      }
      break;
    }
    case BusMsgType::kReplUpdate:
    case BusMsgType::kReplSnapshot:
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
