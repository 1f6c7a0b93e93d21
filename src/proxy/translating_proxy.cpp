#include "proxy/translating_proxy.hpp"

#include "common/log.hpp"

namespace amuse {
namespace {
const Logger kLog("proxy.translating");
}

TranslatingProxy::TranslatingProxy(BusPort& bus, MemberInfo info,
                                   std::unique_ptr<DeviceCodec> codec,
                                   TranslatingProxyConfig config)
    : Proxy(bus, std::move(info)),
      codec_(std::move(codec)),
      config_(config),
      rto_(config.resend_interval) {
  // Register subscriptions on the device's behalf (§III-B).
  std::uint64_t local_id = 1;
  for (const Filter& f : codec_->initial_subscriptions()) {
    this->bus().member_subscribe(member_id(), local_id++, f);
  }
}

TranslatingProxy::~TranslatingProxy() { bus().executor().cancel(timer_); }

void TranslatingProxy::deliver_event(const EncodedEvent& event,
                                     const std::vector<std::uint64_t>& matched) {
  (void)matched;  // a raw device has no notion of subscription ids
  std::optional<Bytes> command = codec_->encode_command(event.event());
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
        bus().send_datagram(member_id(), ack.encode());
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
        if (head_in_flight_) transmit_head();
        arm_timer();
      }
      if (head_in_flight_ && frame->seq == head_seq_) {
        ++stats_.commands_acked;
        queue_.pop_front();
        head_in_flight_ = false;
        retries_ = 0;
        rto_ = config_.resend_interval;
        bus().executor().cancel(timer_);
        timer_ = kNoTimer;
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
  arm_timer();
}

void TranslatingProxy::transmit_head() {
  DeviceFrame f;
  f.type = DeviceFrameType::kCommand;
  f.seq = head_seq_;
  f.payload = queue_.front();
  ++stats_.commands_sent;
  bus().send_datagram(member_id(), f.encode());
}

void TranslatingProxy::arm_timer() {
  if (timer_ != kNoTimer || !head_in_flight_ || stalled_) return;
  timer_ = bus().executor().schedule_after(rto_, [this] {
    timer_ = kNoTimer;
    on_timeout();
  });
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
                      config_.resend_backoff)),
                  config_.resend_max);
  transmit_head();
  arm_timer();
}

void TranslatingProxy::on_purge() {
  bus().executor().cancel(timer_);
  timer_ = kNoTimer;
  queue_.clear();
  head_in_flight_ = false;
  stalled_ = false;
  retries_ = 0;
  rto_ = config_.resend_interval;
}

}  // namespace amuse
