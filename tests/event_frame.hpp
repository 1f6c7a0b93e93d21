// A kPublish or kEvent message built the way the bus client and the
// forwarding proxy build one: BusMessage::write_event_header() followed by
// the event's body. Shared by the tests and the fuzz corpus generator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bus/messages.hpp"

namespace amuse {

inline Bytes event_frame(BusMsgType type, const Event& e,
                         std::span<const std::uint64_t> matched = {}) {
  Bytes out(BusMessage::event_header_size(type, matched.size(), e.origin()));
  BusMessage::write_event_header(out, type, matched, e.origin());
  out.insert(out.end(), e.body().begin(), e.body().end());
  return out;
}

/// A decoded kEvent's ids, for comparing.
inline std::vector<std::uint64_t> ids_of(const MatchedIds& ids) {
  return {ids.begin(), ids.end()};
}

}  // namespace amuse
