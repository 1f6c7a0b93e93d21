// Generic transport layer (paper §III-D).
//
// "Components within the core of the SMC use a generic transport layer …
//  [presenting] recv() and send() calls … the layer returns and accepts
//  arrays of bytes." We keep exactly that boundary: datagrams of bytes,
// unreliable and unordered, addressed by ServiceId (which encodes
// address:port exactly as the prototype derives its 48-bit IDs). Reliability
// is layered on top (wire/ReliableChannel), never assumed here.
//
// Implementations: SimTransport (simulated links, the testbed substitute;
// a zero-cost host with a lossless zero-latency link is the in-process
// case) and UdpTransport (real sockets).
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "common/bytes.hpp"
#include "common/service_id.hpp"

namespace amuse {

class Transport {
 public:
  /// Invoked on the owning executor's thread for each datagram received.
  /// `src` is the sender's transport-level id.
  using ReceiveHandler = std::function<void(ServiceId src, BytesView data)>;

  virtual ~Transport();

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// This endpoint's id — also the service's 48-bit identity (paper §IV).
  [[nodiscard]] virtual ServiceId local_id() const = 0;

  /// Sends one datagram. Fire-and-forget: silently droppable, may arrive
  /// out of order or duplicated depending on the underlying network.
  virtual void send(ServiceId dst, BytesView data) = 0;

  /// One outbound datagram of a burst. The view is non-owning and must stay
  /// alive for the duration of the send_batch() call only.
  struct Datagram {
    ServiceId dst;
    BytesView data;
  };

  /// Sends a burst of datagrams in one call. Semantically identical to
  /// calling send() once per entry, in order — same fire-and-forget
  /// contract, same per-peer FIFO behaviour on transports that preserve
  /// it — but implementations may hand the whole burst to the kernel in
  /// one syscall (UdpTransport uses sendmmsg where available). The default
  /// implementation is the per-datagram loop, so every transport accepts
  /// bursts.
  virtual void send_batch(std::span<const Datagram> batch) {
    for (const Datagram& d : batch) send(d.dst, d.data);
  }

  /// Sends to every endpoint in the local broadcast domain (discovery
  /// beacons use this; the prototype used "an arbitrarily chosen port
  /// number known by services").
  virtual void broadcast(BytesView data) = 0;

  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  /// Largest datagram this transport will carry.
  [[nodiscard]] virtual std::size_t max_datagram() const { return 65507; }
};

}  // namespace amuse
