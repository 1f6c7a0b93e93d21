// The state-stream mirror contract (bus/state_stream.hpp), written once and
// run over both mirrors: interest_table_test instantiates every case with
// InterestSender, replication_test with ReplSender. The epoch fence is
// replication-only and tested there.
//
// A sender is the bus side of one stream:
//   Mirror, Update       the member-side mirror and the frame type
//   change()             mutates the sender's state (each call differently)
//   full()               a full frame of the current state
//   increment()          the frame carrying the changes since the last one
//   confirm()            a confirm of the current state (with nothing
//                        changed since the last frame)
//   digest()             the digest of the current state
#pragma once

#include <gtest/gtest.h>

#include "bus/state_stream.hpp"

namespace amuse::mirror_contract {

constexpr StreamApply kApplied = StreamApply::kApplied;
constexpr StreamApply kResyncNeeded = StreamApply::kResyncNeeded;

/// A full frame replaces the state wholesale, and the same full frame again
/// (admission retransmit, resync race) leaves it unchanged.
template <class S>
void full_replaces_and_is_idempotent() {
  S s;
  typename S::Mirror m;
  typename S::Update full = s.full();
  ASSERT_EQ(m.apply(full), kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.version(), full.version);
  EXPECT_TRUE(digest_equal(m.held_digest(), s.digest()));
  EXPECT_EQ(m.apply(full), kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), s.digest()));
}

template <class S>
void increments_apply_in_sequence() {
  S s;
  typename S::Mirror m;
  ASSERT_EQ(m.apply(s.full()), kApplied);
  for (int i = 0; i < 3; ++i) {
    s.change();
    typename S::Update inc = s.increment();
    ASSERT_FALSE(inc.full);
    EXPECT_EQ(m.apply(inc), kApplied);
    EXPECT_EQ(m.version(), inc.version);
  }
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.held_digest(), s.digest()));
  EXPECT_TRUE(digest_equal(m.state().digest(), s.digest()));
}

/// A confirm naming the held state re-syncs a suspended mirror and moves
/// it to the confirm's version, without a body.
template <class S>
void confirm_adopts_the_version_it_names() {
  S s;
  typename S::Mirror m;
  ASSERT_EQ(m.apply(s.full()), kApplied);
  m.suspend();
  EXPECT_FALSE(m.synced());
  typename S::Update confirm = s.confirm();
  ASSERT_TRUE(confirm.confirm);
  EXPECT_EQ(m.apply(confirm), kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.version(), confirm.version);
  EXPECT_TRUE(digest_equal(m.state().digest(), s.digest()));
}

/// A confirm naming a state the mirror does not hold — here after a real
/// missed increment — asks for a resync, keeps the held state unvouched,
/// and the full frame that answers the resync syncs it again.
template <class S>
void confirm_of_another_state_resyncs_never_wedges() {
  S s;
  typename S::Mirror m;
  ASSERT_EQ(m.apply(s.full()), kApplied);
  const Digest256 held = m.held_digest();
  s.change();
  (void)s.increment();  // lost in transit
  typename S::Update confirm = s.confirm();
  ASSERT_TRUE(confirm.confirm);
  EXPECT_EQ(m.apply(confirm), kResyncNeeded);
  EXPECT_FALSE(m.synced());
  EXPECT_TRUE(digest_equal(m.held_digest(), held));
  EXPECT_EQ(m.apply(s.full()), kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), s.digest()));
}

template <class S>
void version_gap_resyncs() {
  S s;
  typename S::Mirror m;
  ASSERT_EQ(m.apply(s.full()), kApplied);
  s.change();
  (void)s.increment();  // lost in transit
  s.change();
  EXPECT_EQ(m.apply(s.increment()), kResyncNeeded);
  EXPECT_FALSE(m.synced());
  // Nothing applies on top of a gap until the full frame arrives.
  s.change();
  EXPECT_EQ(m.apply(s.increment()), kResyncNeeded);
  EXPECT_EQ(m.apply(s.full()), kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), s.digest()));
}

/// A frame whose result does not hash to its digest (corrupted in transit,
/// a buggy sender) is refused whole: the held state stays the verified one.
template <class S>
void digest_mismatch_refuses_the_frame() {
  S s;
  typename S::Mirror m;
  ASSERT_EQ(m.apply(s.full()), kApplied);
  const Digest256 held = m.held_digest();
  const std::uint64_t version = m.version();
  s.change();
  typename S::Update inc = s.increment();
  inc.digest = Digest256{};
  EXPECT_EQ(m.apply(inc), kResyncNeeded);
  EXPECT_FALSE(m.synced());
  EXPECT_EQ(m.version(), version);
  EXPECT_TRUE(digest_equal(m.held_digest(), held));
  EXPECT_TRUE(digest_equal(m.state().digest(), held));
  typename S::Update full = s.full();
  full.digest = Digest256{};
  EXPECT_EQ(m.apply(full), kResyncNeeded);
  EXPECT_FALSE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), held));
}

template <class S>
void increment_before_full_resyncs() {
  S s;
  (void)s.full();  // the admission frame, lost
  s.change();
  typename S::Update inc = s.increment();
  ASSERT_FALSE(inc.full);
  typename S::Mirror m;
  EXPECT_EQ(m.apply(inc), kResyncNeeded);
  EXPECT_FALSE(m.synced());
}

/// A mirror that never held a state cannot be confirmed into one.
template <class S>
void confirm_before_any_state_resyncs() {
  S s;
  typename S::Mirror m;
  typename S::Update confirm = s.confirm();
  ASSERT_TRUE(confirm.confirm);
  EXPECT_EQ(m.apply(confirm), kResyncNeeded);
  EXPECT_FALSE(m.synced());
  EXPECT_TRUE(digest_equal(m.held_digest(), Digest256{}));
}

}  // namespace amuse::mirror_contract
