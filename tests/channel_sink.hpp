// Test adapter for ReliableChannel's round sink: decodes each datagram of
// a round and hands the frames to a per-frame callback, in order.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>

#include "wire/packet.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {

inline ReliableChannel::SendFn each_frame(
    std::function<void(const Packet&)> fn) {
  return [fn = std::move(fn)](std::span<const Transport::Datagram> round) {
    for (const Transport::Datagram& d : round) {
      std::optional<Packet> p = Packet::decode(d.data);
      if (p) fn(*p);
    }
  };
}

}  // namespace amuse
