#include "proxy/translating_proxy.hpp"

#include "common/log.hpp"

namespace amuse {
namespace {
const Logger kLog("proxy.translating");

// Each resend doubles the timeout, up to this cap.
constexpr double kResendBackoff = 2.0;
constexpr Duration kResendMax = seconds(4);
}

TranslatingProxy::TranslatingProxy(BusPort& bus, MemberInfo info,
                                   std::unique_ptr<DeviceCodec> codec,
                                   TranslatingProxyConfig config)
    : Proxy(bus, std::move(info)),
      codec_(std::move(codec)),
      config_(config),
      rto_(config.resend_interval),
      resend_timer_(this->bus().executor(), [this] { on_timeout(); }) {
  // Register subscriptions on the device's behalf (§III-B).
  std::uint64_t local_id = 1;
  for (const Filter& f : codec_->initial_subscriptions()) {
    this->bus().member_subscribe(member_id(), local_id++, f);
  }
}

void TranslatingProxy::deliver_event(const Event& event,
                                     std::span<const std::uint64_t> matched) {
  (void)matched;  // a raw device has no notion of subscription ids
  std::optional<Bytes> command = codec_->encode_command(event);
  if (!command) {
    ++stats_.events_untranslatable;
    return;
  }
  if (queue_.size() >= config_.max_queue) {
    ++stats_.queue_overflow;
    kLog.warn("command queue full for ", member_id().to_string());
    return;
  }
  queue_.push_back(std::move(*command));
  pump();
}

void TranslatingProxy::on_datagram(BytesView data) {
  std::optional<DeviceFrame> frame = DeviceFrame::decode(data);
  if (!frame) return;

  switch (frame->type) {
    case DeviceFrameType::kReading: {
      if (codec_->readings_need_ack()) {
        DeviceFrame ack;
        ack.type = DeviceFrameType::kAck;
        ack.seq = frame->seq;
        Bytes wire = ack.encode();
        const Transport::Datagram d{member_id(), wire};
        bus().send_datagrams({&d, 1});
      }
      if (seen_any_reading_ && !seq16_newer(frame->seq, last_reading_seq_)) {
        ++stats_.readings_duplicate;
        return;
      }
      seen_any_reading_ = true;
      last_reading_seq_ = frame->seq;
      std::optional<Event> event = codec_->decode_reading(frame->payload);
      if (!event) {
        ++stats_.readings_undecodable;
        return;
      }
      ++stats_.readings_decoded;
      bus().member_publish(member_id(), std::move(*event));
      break;
    }
    case DeviceFrameType::kAck: {
      // Any sign of life un-stalls the command pipeline.
      if (stalled_) {
        stalled_ = false;
        retries_ = 0;
        rto_ = config_.resend_interval;
        if (head_in_flight_) {
          transmit_head();
          resend_timer_.arm_after(rto_);
        }
      }
      if (head_in_flight_ && frame->seq == head_seq_) {
        ++stats_.commands_acked;
        queue_.pop_front();
        head_in_flight_ = false;
        retries_ = 0;
        rto_ = config_.resend_interval;
        resend_timer_.cancel();
        pump();
      }
      break;
    }
    case DeviceFrameType::kCommand:
      // Devices do not command their proxy.
      break;
  }
}

void TranslatingProxy::pump() {
  if (head_in_flight_ || queue_.empty() || stalled_) return;
  head_seq_ = next_cmd_seq_++;
  head_in_flight_ = true;
  transmit_head();
  resend_timer_.arm_after(rto_);
}

void TranslatingProxy::transmit_head() {
  DeviceFrame f;
  f.type = DeviceFrameType::kCommand;
  f.seq = head_seq_;
  f.payload = queue_.front();
  ++stats_.commands_sent;
  Bytes wire = f.encode();
  const Transport::Datagram d{member_id(), wire};
  bus().send_datagrams({&d, 1});
}

void TranslatingProxy::on_timeout() {
  if (!head_in_flight_ || stalled_) return;
  if (retries_ >= config_.max_retries) {
    stalled_ = true;
    kLog.debug("device ", member_id().to_string(),
               " unresponsive; holding command queue");
    return;
  }
  ++retries_;
  ++stats_.command_retransmits;
  rto_ = std::min(Duration(static_cast<std::int64_t>(
                      static_cast<double>(rto_.count()) *
                      kResendBackoff)),
                  kResendMax);
  transmit_head();
  resend_timer_.arm_after(rto_);
}

void TranslatingProxy::on_purge() {
  resend_timer_.cancel();
  queue_.clear();
  head_in_flight_ = false;
  stalled_ = false;
  retries_ = 0;
  rto_ = config_.resend_interval;
}

}  // namespace amuse
