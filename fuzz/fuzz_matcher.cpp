// Differential fuzz entry for the matching engine. Subscription filters
// arrive from members over the wire, so FastForwardMatcher's index is fed
// attacker-controlled constraints; BruteForceMatcher evaluates every filter
// directly and is the oracle. Any disagreement, duplicate id or size
// mismatch aborts.
//
// Input: a sequence of records `u8 op, blob16 body` (the codec's framing).
// `op >> 2` names one of 64 subscription ids, so adds, re-adds and removes
// collide; `op & 3` picks the action:
//   0, 1 — add (or replace) the id with decode_filter(body);
//   2    — remove the id;
//   3    — match decode_event(body) against both engines.
// Bodies that do not decode are skipped; a truncated record ends the input.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "pubsub/brute_matcher.hpp"
#include "pubsub/codec.hpp"
#include "pubsub/fastforward_matcher.hpp"

namespace {

std::vector<amuse::SubId> sorted_matches(const amuse::Matcher& m,
                                         const amuse::Event& e) {
  std::vector<amuse::SubId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  amuse::FastForwardMatcher fast;
  amuse::BruteForceMatcher brute;
  amuse::Reader r(amuse::BytesView(data, size));
  try {
    while (!r.done()) {
      std::uint8_t op = r.u8();
      amuse::Bytes body = r.blob16();
      amuse::SubId id = op >> 2;
      switch (op & 3) {
        case 0:
        case 1: {
          amuse::Filter f;
          try {
            f = amuse::decode_filter(body);
          } catch (const amuse::DecodeError&) {
            continue;
          }
          fast.add(id, f);
          brute.add(id, f);
          break;
        }
        case 2:
          fast.remove(id);
          brute.remove(id);
          break;
        default: {
          amuse::Event e;
          try {
            e = amuse::decode_event(body);
          } catch (const amuse::DecodeError&) {
            continue;
          }
          std::vector<amuse::SubId> got = sorted_matches(fast, e);
          if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
            std::abort();
          }
          if (got != sorted_matches(brute, e)) std::abort();
          break;
        }
      }
      if (fast.size() != brute.size()) std::abort();
    }
  } catch (const amuse::DecodeError&) {
    // truncated record: end of input
  }
  return 0;
}
