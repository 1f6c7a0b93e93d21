// Fuzz entry for wire/Packet::decode — the first parser every datagram from
// the network hits, so it must tolerate arbitrary bytes. decode() returning
// nullopt is the expected rejection path; any throw, crash, or sanitizer
// report is a finding. Round-trip property: whatever decode() accepts must
// re-encode and decode to the same frame. Batched DATA frames add a second
// property: decode() only accepts a kFlagBatched payload that split_batch()
// can tile into sub-messages, and the sub-views must stay in bounds.
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "wire/packet.hpp"

namespace {

void check_round_trip(const amuse::Packet& p) {
  amuse::Bytes reencoded = p.encode();
  std::optional<amuse::Packet> q = amuse::Packet::decode(reencoded);
  if (!q) std::abort();  // accepted frames must survive a round trip
  if (q->type != p.type || q->seq != p.seq || q->ack != p.ack ||
      q->session != p.session || q->flags != p.flags || q->src != p.src ||
      q->dst != p.dst || q->payload != p.payload) {
    std::abort();
  }
}

// decode() promised this payload tiles into sub-messages; verify, and touch
// every sub-byte so ASan sees any out-of-bounds view.
void check_batch_splits(const amuse::Packet& p) {
  auto subs = amuse::Packet::split_batch(p.payload);
  if (!subs) std::abort();
  std::size_t total = 0;
  unsigned sink = 0;
  for (amuse::BytesView sub : *subs) {
    total += 2 + sub.size();
    for (std::uint8_t b : sub) sink += b;
  }
  if (total != p.payload.size()) std::abort();
  if (sink == 0xFFFFFFFFu) std::abort();  // keep the reads alive
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  amuse::BytesView input(data, size);
  std::optional<amuse::Packet> p = amuse::Packet::decode(input);
  if (p) {
    check_round_trip(*p);
    if (p->type == amuse::PacketType::kData &&
        (p->flags & amuse::kFlagBatched) != 0) {
      check_batch_splits(*p);
    }
  }

  // Drive the batched-payload validation directly: wrap the raw input as
  // the payload of an otherwise well-formed batched DATA frame. decode()
  // must accept it iff the bytes tile into u16-length-prefixed subs.
  if (size <= 0xFFFF) {
    amuse::Packet b;
    b.type = amuse::PacketType::kData;
    b.flags = amuse::kFlagBatched;
    b.session = 0x5EED;
    b.src = amuse::ServiceId::from_addr_port(0x7F000001u, 1);
    b.dst = amuse::ServiceId::from_addr_port(0x7F000001u, 2);
    b.payload = amuse::SharedBytes::copy_of(amuse::BytesView(data, size));
    amuse::Bytes wire = b.encode();
    std::optional<amuse::Packet> q = amuse::Packet::decode(wire);
    if (q) {
      check_batch_splits(*q);
      check_round_trip(*q);
    } else if (amuse::Packet::split_batch(b.payload)) {
      std::abort();  // splittable payload must not be rejected
    }
  }
  return 0;
}
