// The state-stream protocol (DESIGN.md §11, §13): state the bus pushes to a
// member and that the member must be able to trust — a filter table
// (kInterestUpdate) or the warm standby's replication log (kReplUpdate) —
// travels as one versioned, digest-checked stream per member. Both streams
// share the header below, its codec (bus/messages.cpp) and the receiver's
// state machine (StreamMirror); each keeps only its typed body.
//
// Bus → member a frame is one of
//   full       the body replaces the held state wholesale (admission,
//              resync); idempotent
//   increment  the body applies on top of exactly `version - 1`
//   confirm    no body: the receiver's held state must hash to `digest`,
//              and on a match the receiver adopts `version` (the interest
//              admission confirm, the replication lease)
// and `digest` is always the SHA-256 identity of the complete state *after*
// the frame. Member → bus the only frame is a resync request: the mirror
// lost sync (version gap, digest mismatch, increment before any full
// state, or a confirm naming a state it does not hold) and asks for a full
// frame.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/sha256.hpp"

namespace amuse {

/// The header every state-stream frame starts with:
///   u8 flags (0x01 full, 0x02 resync, 0x04 confirm), u64 version,
///   u8[32] digest
/// A confirm stands alone (no other flag) and carries no body.
struct StreamHeader {
  std::uint64_t version = 0;
  /// Digest of the complete state after applying this frame.
  Digest256 digest{};
  bool full = false;
  /// Member → bus: the mirror lost sync, push a full frame.
  bool request_resync = false;
  bool confirm = false;
};

/// What a mirror did with one frame.
enum class StreamApply {
  kApplied,
  /// The frame does not verify against the held state: request a resync.
  kResyncNeeded,
  /// Fenced streams only (replication): the sender's epoch is below one
  /// already seen — a deposed core still streaming. Ignore, never resync.
  kStaleEpoch,
};

/// The member side of one state stream. The held state is always the last
/// one that verified against a digest: a frame that does not verify is
/// refused whole and leaves the mirror unsynced until a full frame, or a
/// confirm naming the held state, arrives. `State` provides digest().
template <class State>
class StreamMirror {
 public:
  using Apply = StreamApply;

  /// Applies one bus → member frame. `body(held)` builds the state the
  /// frame describes — the decoded full state, or a copy of `held` with
  /// the increment applied — or returns nullopt when the body is
  /// malformed or does not fit `held`. Not called for a confirm.
  template <class Body>
  Apply apply(const StreamHeader& header, Body&& body) {
    if (header.confirm) {
      synced_ = digest_ != Digest256{} && digest_equal(digest_, header.digest);
      if (!synced_) return Apply::kResyncNeeded;
      version_ = header.version;
      return Apply::kApplied;
    }
    if (!header.full && (!synced_ || header.version != version_ + 1)) {
      synced_ = false;
      return Apply::kResyncNeeded;
    }
    std::optional<State> next = body(std::as_const(state_));
    if (!next || !digest_equal(next->digest(), header.digest)) {
      synced_ = false;
      return Apply::kResyncNeeded;
    }
    state_ = std::move(*next);
    version_ = header.version;
    digest_ = header.digest;
    synced_ = true;
    return Apply::kApplied;
  }

  /// True once a full state has been received (or confirmed) and every
  /// frame since has verified.
  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const State& state() const { return state_; }
  /// The digest the held state last verified at — what a re-joining member
  /// presents at admission; all zero until a state arrives.
  [[nodiscard]] const Digest256& held_digest() const { return digest_; }

  /// Keeps the state but stops vouching for it (carried across a re-join):
  /// unsynced until a full frame or a confirm arrives.
  void suspend() { synced_ = false; }
  /// Forgets everything: the next frame must be full.
  void reset() { *this = StreamMirror(); }
  /// Moves the held state out (standby promotion consumes the mirror).
  [[nodiscard]] State take_state() {
    synced_ = false;
    digest_ = {};
    return std::move(state_);
  }

 private:
  State state_{};
  std::uint64_t version_ = 0;
  Digest256 digest_{};
  bool synced_ = false;
};

}  // namespace amuse
