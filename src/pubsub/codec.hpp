// Standalone byte-array codecs for events and filters — the representation
// that crosses the generic transport layer (paper §III-D: byte arrays keep
// the SMC core independent of any language serialisation).
#pragma once

#include "pubsub/event.hpp"
#include "pubsub/filter.hpp"

namespace amuse {

/// A copy of the event's body (Event::body() shares it instead).
[[nodiscard]] Bytes encode_event(const Event& e);
/// Throws DecodeError on malformed input. Copies `b` into a fresh shared
/// buffer (one allocation) and indexes it.
[[nodiscard]] Event decode_event(BytesView b);
/// As above, indexing `b` in place: the event shares its buffer.
[[nodiscard]] Event decode_event(SharedBytes b);

[[nodiscard]] Bytes encode_filter(const Filter& f);
[[nodiscard]] Filter decode_filter(BytesView b);

}  // namespace amuse
