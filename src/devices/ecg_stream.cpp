#include "devices/ecg_stream.hpp"

#include <cmath>
#include <numbers>

namespace amuse {
namespace {
// Beats per minute of the synthetic waveform.
constexpr double kBpm = 72.0;
}  // namespace

EcgStreamer::EcgStreamer(Executor& executor,
                         std::shared_ptr<Transport> transport,
                         ServiceId viewer, EcgStreamConfig config)
    : transport_(std::move(transport)),
      viewer_(viewer),
      config_(config),
      batch_timer_(executor, [this] { send_batch(); }) {}

void EcgStreamer::start() {
  if (running_) return;
  running_ = true;
  send_batch();
}

void EcgStreamer::stop() {
  running_ = false;
  batch_timer_.cancel();
}

void EcgStreamer::send_batch() {
  if (!running_) return;
  Writer w;
  w.u16(0xEC61);  // ECG frame magic: broadcasts from other protocols also
                  // reach this endpoint and must be distinguishable
  w.u32(seq_++);
  w.u16(static_cast<std::uint16_t>(config_.samples_per_packet));
  double beat_hz = kBpm / 60.0;
  for (std::size_t i = 0; i < config_.samples_per_packet; ++i) {
    phase_ += beat_hz / config_.sample_rate_hz;
    if (phase_ >= 1.0) phase_ -= 1.0;
    // Crude PQRST-ish shape: a narrow spike on top of a sine baseline.
    double baseline = 0.1 * std::sin(2.0 * std::numbers::pi * phase_);
    double spike =
        phase_ < 0.04 ? std::exp(-std::pow((phase_ - 0.02) / 0.008, 2)) : 0.0;
    double mv = baseline + 1.1 * spike + rng_.normal(0.0, 0.01);
    w.u16(static_cast<std::uint16_t>(
        std::lround(std::clamp(mv, -2.0, 2.0) * 1000.0) + 16384));
  }
  transport_->send(viewer_, w.bytes());

  Duration interval = from_seconds(
      static_cast<double>(config_.samples_per_packet) / config_.sample_rate_hz);
  batch_timer_.arm_after(interval);
}

EcgViewer::EcgViewer(std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  transport_->set_receive_handler([this](ServiceId, BytesView data) {
    try {
      Reader r(data);
      if (r.u16() != 0xEC61) return;  // not an ECG frame
      std::uint32_t seq = r.u32();
      std::uint16_t n = r.u16();
      if (first_) {
        first_ = false;
        expected_seq_ = seq;
      }
      if (seq < expected_seq_) {
        ++stats_.out_of_order;
        return;
      }
      stats_.lost_packets += seq - expected_seq_;
      expected_seq_ = seq + 1;
      ++stats_.packets;
      stats_.samples += n;
    } catch (const DecodeError&) {
      // Not an ECG packet; ignore.
    }
  });
}

EcgViewer::~EcgViewer() { transport_->set_receive_handler(nullptr); }

}  // namespace amuse
