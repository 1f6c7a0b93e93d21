// Fuzz entry for the pub/sub codecs (decode_event / decode_filter) — these
// parse attacker-controllable bytes carried inside DATA frames. DecodeError
// is the expected rejection path; any other throw, crash, or sanitizer
// report is a finding. Round-trip property mirrors fuzz_packet, and an
// accepted event body that is already canonical must come back byte for
// byte — the bus forwards such bodies exactly as received.
#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <cstdlib>
#include <string>

#include "pubsub/codec.hpp"

namespace {

// Canonical, judged independently of the decoder: attribute names strictly
// ascending and every bool byte 0 or 1. Only called on bodies decode
// accepted, so every read is in bounds.
bool canonical(amuse::BytesView body) {
  amuse::Reader r(body);
  (void)r.raw(amuse::Event::kHeaderSize - 2);
  std::uint16_t n = r.u16();
  std::string prev;
  for (std::uint16_t i = 0; i < n; ++i) {
    std::string name = r.str();
    if (i > 0 && !(prev < name)) return false;
    prev = name;
    switch (static_cast<amuse::ValueType>(r.u8())) {
      case amuse::ValueType::kBool:
        if (r.u8() > 1) return false;
        break;
      case amuse::ValueType::kString: (void)r.raw(r.u16()); break;
      case amuse::ValueType::kBytes: (void)r.raw(r.u32()); break;
      default: (void)r.raw(8); break;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  // First byte steers which decoder runs so one corpus covers both.
  amuse::BytesView input(data + 1, size - 1);
  try {
    if ((data[0] & 1) == 0) {
      amuse::Event e = amuse::decode_event(input);
      amuse::Bytes reencoded = amuse::encode_event(e);
      if (canonical(input) &&
          !std::equal(reencoded.begin(), reencoded.end(), input.begin(),
                      input.end())) {
        std::abort();
      }
      // A re-serialised body is canonical, so it is a fixed point.
      if (!canonical(reencoded)) std::abort();
      amuse::Event e2 = amuse::decode_event(reencoded);
      if (!(e2 == e) || amuse::encode_event(e2) != reencoded) std::abort();
    } else {
      amuse::Filter f = amuse::decode_filter(input);
      amuse::Bytes reencoded = amuse::encode_filter(f);
      amuse::Filter f2 = amuse::decode_filter(reencoded);
      if (!(f2 == f)) std::abort();
    }
  } catch (const amuse::DecodeError&) {
    // expected rejection of malformed input
  }
  return 0;
}
