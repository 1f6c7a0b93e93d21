#include "devices/device.hpp"

#include "common/log.hpp"

namespace amuse {
namespace {
const Logger kLog("device");

// First ack timeout; each reading retransmission doubles it, with no cap.
constexpr Duration kAckTimeout = milliseconds(300);
constexpr double kAckBackoff = 2.0;
}

RawDevice::RawDevice(Executor& executor, std::shared_ptr<Transport> transport,
                     RawDeviceConfig config)
    : executor_(executor),
      transport_(std::move(transport)),
      config_(std::move(config)),
      rto_(kAckTimeout),
      ack_timer_(executor_, [this] { on_ack_timeout(); }),
      reading_timer_(executor_, [this] { reading_tick(); }) {
  agent_ = std::make_unique<DiscoveryAgent>(executor_, transport_,
                                            config_.agent);
  agent_->set_on_joined([this](ServiceId, std::uint32_t) {
    if (config_.reading_interval > Duration{} && !reading_timer_.armed()) {
      reading_timer_.arm_after(config_.reading_interval);
    }
  });
  agent_->set_on_left([this] {
    reading_timer_.cancel();
    ack_timer_.cancel();
    pending_.reset();
  });

  transport_->set_receive_handler([this](ServiceId src, BytesView data) {
    on_datagram(src, data);
  });
}

RawDevice::~RawDevice() {
  transport_->set_receive_handler(nullptr);
}

void RawDevice::start() { agent_->start(); }

void RawDevice::leave() { agent_->leave(); }

void RawDevice::reading_tick() {
  if (!agent_->joined()) return;
  std::optional<Bytes> payload = next_reading();
  if (payload) send_reading(std::move(*payload));
  reading_timer_.arm_after(config_.reading_interval);
}

void RawDevice::emit_reading(Bytes payload) {
  if (agent_->joined()) send_reading(std::move(payload));
}

void RawDevice::send_reading(Bytes payload) {
  DeviceFrame f;
  f.type = DeviceFrameType::kReading;
  f.seq = next_seq_++;
  f.payload = std::move(payload);

  if (config_.readings_need_ack) {
    if (pending_) {
      // Still waiting on the previous reading; the new one supersedes it
      // (fresh vital signs beat stale ones on a constrained link).
      ++stats_.readings_dropped;
    }
    pending_ = f;
    retries_ = 0;
    rto_ = kAckTimeout;
    transmit_pending();
    ack_timer_.arm_after(rto_);
  } else {
    ++stats_.readings_sent;
    transport_->send(agent_->bus_id(), f.encode());
  }
}

void RawDevice::transmit_pending() {
  if (!pending_) return;
  ++stats_.readings_sent;
  transport_->send(agent_->bus_id(), pending_->encode());
}

void RawDevice::on_ack_timeout() {
  if (!pending_) return;
  if (retries_ >= config_.max_retries) {
    ++stats_.readings_dropped;
    pending_.reset();
    return;
  }
  ++retries_;
  ++stats_.reading_retransmits;
  rto_ = Duration(static_cast<std::int64_t>(
      static_cast<double>(rto_.count()) * kAckBackoff));
  transmit_pending();
  ack_timer_.arm_after(rto_);
}

void RawDevice::on_datagram(ServiceId src, BytesView data) {
  // Device frames only ever come from the bus endpoint (our proxy).
  if (agent_->joined() && src == agent_->bus_id()) {
    std::optional<DeviceFrame> frame = DeviceFrame::decode(data);
    if (frame) {
      switch (frame->type) {
        case DeviceFrameType::kAck:
          if (pending_ && frame->seq == pending_->seq) {
            ++stats_.readings_acked;
            pending_.reset();
            ack_timer_.cancel();
            retries_ = 0;
            rto_ = kAckTimeout;
          }
          return;
        case DeviceFrameType::kCommand: {
          // Always ack; dedup before executing.
          DeviceFrame ack;
          ack.type = DeviceFrameType::kAck;
          ack.seq = frame->seq;
          transport_->send(src, ack.encode());
          if (seen_cmd_ && !seq16_newer(frame->seq, last_cmd_seq_)) return;
          seen_cmd_ = true;
          last_cmd_seq_ = frame->seq;
          ++stats_.commands_received;
          on_command(frame->payload);
          return;
        }
        case DeviceFrameType::kReading:
          return;  // proxies do not send readings
      }
    }
  }
  // Everything else is discovery traffic.
  if (std::optional<Packet> p = Packet::decode(data)) {
    agent_->handle_packet(src, *p);
  }
}

}  // namespace amuse
