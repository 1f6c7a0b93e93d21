// ECG streaming outside the event bus.
//
// "We do not consider that all communication within an SMC is routed via
//  the event bus. We assume there may be … monitored data, such as from a
//  heart ECG monitor that could be sent to a remote station for viewing
//  and analysis." (§I)
//
// EcgStreamer pushes fixed-rate sample batches straight over the transport
// (unreliable, no acks — freshness beats completeness for a live trace);
// EcgViewer reassembles the stream and tracks loss and inter-arrival
// jitter, demonstrating why this traffic must NOT occupy the management
// bus.
#pragma once

#include <memory>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/timer.hpp"

namespace amuse {

struct EcgStreamConfig {
  /// Sample rate of the synthetic ECG waveform.
  double sample_rate_hz = 250.0;
  /// Samples batched per datagram.
  std::size_t samples_per_packet = 50;
};

class EcgStreamer {
 public:
  EcgStreamer(Executor& executor, std::shared_ptr<Transport> transport,
              ServiceId viewer, EcgStreamConfig config = {});

  void start();
  void stop();

  [[nodiscard]] std::uint32_t packets_sent() const { return seq_; }

 private:
  void send_batch();

  std::shared_ptr<Transport> transport_;
  ServiceId viewer_;
  EcgStreamConfig config_;
  Rng rng_{0xec9, 7};
  std::uint32_t seq_ = 0;
  double phase_ = 0.0;
  Timer batch_timer_;
  bool running_ = false;
};

class EcgViewer {
 public:
  explicit EcgViewer(std::shared_ptr<Transport> transport);
  ~EcgViewer();

  struct Stats {
    Counter packets;
    Counter samples;
    Counter lost_packets;
    Counter out_of_order;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::shared_ptr<Transport> transport_;
  std::uint32_t expected_seq_ = 0;
  bool first_ = true;
  Stats stats_;
};

}  // namespace amuse
