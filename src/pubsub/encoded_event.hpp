// EncodedEvent: the per-publish cache pairing a frozen event with its wire
// encoding, produced at most once and shared by reference across every
// outgoing link of a fan-out.
//
// The paper's C-based engine exists because per-event copying and
// translation dominate bus cost (§III-A, Fig. 4); Gryphon-style brokering
// treats a published event as one immutable dataflow value shared across
// all outgoing links. This type is that value: the bus routes an
// EncodedEvent, each ForwardingProxy prepends only its small per-member
// header to the shared body bytes, and nobody re-serialises the attribute
// map. Encoding is lazy so fan-outs that never touch the wire (local
// handlers, translating proxies speaking raw device protocols) never pay
// for it.
//
// Thread model: the bus pipeline is single-threaded on its executor, so the
// lazy encode needs no synchronisation; the produced Bytes are immutable
// and safe to share once handed out.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "pubsub/event.hpp"

namespace amuse {

class EncodedEvent {
 public:
  explicit EncodedEvent(EventPtr event) : event_(std::move(event)) {}

  /// Points the encode/reuse tallies at the owner's stats (the bus wires
  /// these to Stats::encodes / Stats::encode_reuses). The pointers must
  /// outlive every shared_bytes() call.
  void set_counters(std::uint64_t* encodes, std::uint64_t* reuses) {
    encodes_ = encodes;
    reuses_ = reuses;
  }

  [[nodiscard]] const Event& event() const { return *event_; }

  /// The serialised event body — identical to encode_event(event()).
  /// Encoded on first call; every later call (any member of the fan-out,
  /// any retransmission) shares the same immutable bytes.
  [[nodiscard]] const std::shared_ptr<const Bytes>& shared_bytes() const;

  /// Size of the wire encoding (encodes on first use, like shared_bytes()).
  [[nodiscard]] std::size_t wire_size() const { return shared_bytes()->size(); }

  /// True once the encoding has been materialised.
  [[nodiscard]] bool encoded() const { return bytes_ != nullptr; }

 private:
  EventPtr event_;
  mutable std::shared_ptr<const Bytes> bytes_;
  std::uint64_t* encodes_ = nullptr;
  std::uint64_t* reuses_ = nullptr;
};

}  // namespace amuse
