// The raw device protocol spoken between simple sensors/actuators and their
// translating proxies.
//
// "the temperature sensor … may periodically send a series of bytes
//  representing a temperature reading, which the proxy converts into an
//  object representing an event" (§III-B). Devices are too simple for the
// bus wire protocol; they exchange tiny frames:
//
//   magic u8 = 0xD5 | type u8 | seq u16 | payload…
//
//   kReading  device → proxy   device-specific payload bytes
//   kCommand  proxy → device   device-specific payload bytes
//   kAck      either direction acknowledges `seq` (empty payload)
//
// Reliability is stop-and-wait per direction; whether a *reading* needs an
// acknowledgement is the device's choice ("a temperature sensor may
// periodically transmit data and not require any acknowledgement").
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace amuse {

enum class DeviceFrameType : std::uint8_t {
  kReading = 1,
  kCommand = 2,
  kAck = 3,
};

struct DeviceFrame {
  DeviceFrameType type = DeviceFrameType::kReading;
  std::uint16_t seq = 0;
  Bytes payload;

  static constexpr std::uint8_t kMagic = 0xD5;

  [[nodiscard]] Bytes encode() const {
    Writer w(4 + payload.size());
    w.u8(kMagic);
    w.u8(static_cast<std::uint8_t>(type));
    w.u16(seq);
    w.raw(payload);
    return std::move(w).take();
  }

  [[nodiscard]] static std::optional<DeviceFrame> decode(BytesView data) {
    if (data.size() < 4 || data[0] != kMagic) return std::nullopt;
    std::uint8_t t = data[1];
    if (t < 1 || t > 3) return std::nullopt;
    DeviceFrame f;
    f.type = static_cast<DeviceFrameType>(t);
    f.seq = static_cast<std::uint16_t>(load_be<2>(data.data() + 2));
    f.payload.assign(data.begin() + 4, data.end());
    return f;
  }
};

/// Wraparound-aware "newer than" for 16-bit device sequence numbers.
[[nodiscard]] inline bool seq16_newer(std::uint16_t candidate,
                                      std::uint16_t reference) {
  return static_cast<std::int16_t>(candidate - reference) > 0;
}

}  // namespace amuse
