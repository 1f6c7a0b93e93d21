#include "hostmodel/profiles.hpp"

namespace amuse::profiles {

// Derivation (targets in profiles.hpp):
//
// Response time at 0-byte payload, C-based bus (≈45 ms). The PDA handles
// THREE packets on the forward path — it receives the publish, transmits
// the acknowledgement to the publisher ("events are always acknowledged",
// §III-B), and transmits the forwarded event — all serialised through its
// single CPU:
//   laptop send (2)  + link (1.45) + PDA recv (8.2 + frame copies ≈2)
//   + match (1) + PDA ack send (8.3) + PDA event send (8.2 + ≈2)
//   + link (1.45) + laptop recv (2) + scheduling jitter (≈6 mean)  ≈ 45 ms.
// The 8.2 ms per-packet PDA cost covers kernel scheduling, the socket →
// JVM crossing and datagram handling in an interpreted JVM 1.3 — the paper
// explicitly blames "the behaviour of the operating system at each host,
// and also of the JVM".
//
// Slope: Figure 4(a)'s C-based line rises ≈195 ms over 5000 B = 39 µs/B.
// Two link serialisations contribute 2 × 1.74 µs/B (575 KB/s); the rest is
// payload copying on the PDA: 2 copies on recv + 2 on send + 1 in the bus
// queue = 5 copies ⇒ per-byte-copy ≈ 7 µs (≈140 KB/s effective memcpy
// through the JVM — "copying of packet data, which we have attempted to
// minimise in the C-based publish/subscribe mechanism").
CostModel pda_ipaq_hx4700() {
  CostModel m;
  m.per_packet_send = microseconds(8'200);
  m.per_packet_recv = microseconds(8'200);
  m.per_byte_copy = nanoseconds(7'000);
  m.send_copies = 2;
  m.recv_copies = 2;
  m.sched_jitter_max = microseconds(4'000);
  return m;
}

CostModel laptop_p3_1200() {
  CostModel m;
  m.per_packet_send = microseconds(2'000);
  m.per_packet_recv = microseconds(2'000);
  m.per_byte_copy = nanoseconds(30);
  m.send_copies = 1;
  m.recv_copies = 1;
  m.sched_jitter_max = microseconds(1'000);
  return m;
}

CostModel ideal_host() {
  CostModel m;
  m.per_packet_send = microseconds(1);
  m.per_packet_recv = microseconds(1);
  m.per_byte_copy = nanoseconds(0);
  m.send_copies = 0;
  m.recv_copies = 0;
  m.sched_jitter_max = Duration{};
  return m;
}

// The dedicated engine: a fixed ~1 ms to run the fast-forwarding matcher
// (JNI call + index probes) and one extra payload copy into the delivery
// queue.
BusCostModel c_bus_costs() {
  BusCostModel b;
  b.match_fixed = microseconds(1'000);
  b.match_per_subscription = microseconds(20);
  b.translate_fixed = Duration{};
  b.translate_per_byte = Duration{};
  b.extra_copies = 1;
  return b;
}

// Siena adds: ~40 ms fixed translation/setup per event (constructing Siena
// Notification objects, attribute boxing, JNI marshalling) plus ~30 µs/B
// string conversion, and three further whole-payload copies through the
// translation layers. Figure 4(a): Siena-based starts ≈45 ms above the
// C-based line and its slope is ≈53 µs/B steeper — 30 µs/B translation +
// 3 × 7 µs/B copies.
BusCostModel siena_bus_costs() {
  BusCostModel b;
  b.match_fixed = microseconds(5'000);
  b.match_per_subscription = microseconds(120);
  b.translate_fixed = microseconds(40'000);
  b.translate_per_byte = nanoseconds(30'000);
  b.extra_copies = 3;
  return b;
}

}  // namespace amuse::profiles
