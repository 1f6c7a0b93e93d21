// ReplState / ReplLog / ReplMirror unit tests, plus the kReplUpdate /
// kReplSnapshot wire codec — the warm-standby replication stream the HA
// core rides on (DESIGN.md §13). Mirrors the InterestMirror suite: version
// gap → resync, digest mismatch → refuse-and-resync, increment before any
// full snapshot → rejected, snapshots idempotent on a warm standby.
#include "bus/replication.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bus/messages.hpp"
#include "common/rng.hpp"
#include "pubsub/codec.hpp"

namespace amuse {
namespace {

Filter fa() { return Filter::for_type("a"); }
Filter fb() { return Filter::for_type_prefix("b."); }

// A spooled event as the bus appends it: the body, and beside it the
// origin stamp the bus put on it.
Origin origin(std::uint64_t epoch, std::uint64_t seq) {
  return Origin{ServiceId(0xC0), epoch, seq};
}

Bytes event_bytes(const char* type) { return encode_event(Event(type)); }

// A log with one member and one subscription, pending ops drained — the
// state a live bus is in between mutations (the bus always drains before
// snapshotting; see EventBus::push_repl_snapshot).
ReplLog seeded_log() {
  ReplLog log;
  log.set_epoch(1);
  log.member_admitted(ServiceId(5), "sensor", "service");
  log.sub_added(ServiceId(5), 1, fa());
  (void)log.take_update();
  return log;
}

// ---- Wire codec.

TEST(ReplUpdateCodec, IncrementalRoundTrip) {
  ReplUpdate u;
  u.version = 9;
  u.epoch = 3;
  u.ops = {0x01, 0x02, 0x03};
  u.digest = Sha256::hash(BytesView(u.ops));

  BusMessage back = BusMessage::decode(BusMessage::repl_update(u).encode());
  EXPECT_EQ(back.type, BusMsgType::kReplUpdate);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_EQ(back.repl->version, 9u);
  EXPECT_EQ(back.repl->epoch, 3u);
  EXPECT_FALSE(back.repl->full);
  EXPECT_FALSE(back.repl->lease);
  EXPECT_FALSE(back.repl->request_resync);
  EXPECT_EQ(back.repl->ops, u.ops);
  EXPECT_TRUE(digest_equal(back.repl->digest, u.digest));
}

TEST(ReplUpdateCodec, SnapshotRoundTrip) {
  ReplLog log = seeded_log();
  ReplUpdate snap = log.snapshot();
  BusMessage back = BusMessage::decode(BusMessage::repl_update(snap).encode());
  EXPECT_EQ(back.type, BusMsgType::kReplSnapshot);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->full);
  EXPECT_EQ(back.repl->ops, snap.ops);
}

TEST(ReplUpdateCodec, LeaseRoundTrip) {
  ReplLog log = seeded_log();
  ReplUpdate lease = log.take_update();  // nothing pending → bare lease
  EXPECT_TRUE(lease.lease);
  BusMessage back = BusMessage::decode(BusMessage::repl_update(lease).encode());
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->lease);
  EXPECT_TRUE(back.repl->ops.empty());
}

TEST(ReplUpdateCodec, ResyncRequestRoundTrip) {
  BusMessage back =
      BusMessage::decode(BusMessage::repl_resync_request().encode());
  EXPECT_EQ(back.type, BusMsgType::kReplUpdate);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->request_resync);
}

TEST(ReplUpdateCodec, RejectsUnknownFlags) {
  Bytes frame = BusMessage::repl_resync_request().encode();
  // Byte 0 is the message type; byte 1 the flag octet.
  frame[1] = 0x80;
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
}

TEST(ReplUpdateCodec, RejectsSnapshotTypeWithoutFullFlag) {
  ReplLog log = seeded_log();
  Bytes frame = BusMessage::repl_update(log.snapshot()).encode();
  frame[1] &= static_cast<std::uint8_t>(~0x01);  // clear the `full` flag
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
}

// ---- ReplState: canonical encoding.

TEST(ReplState, EncodeDecodeRoundTrip) {
  ReplLog log = seeded_log();
  log.member_admitted(ServiceId(6), "console", "nurse");
  log.sub_added(ServiceId(6), 4, fb());
  log.counters_changed(100, 7, 13);
  auto evicted = log.spool_append(origin(1, 13), event_bytes("a"));
  EXPECT_TRUE(evicted.empty());

  ReplState back = ReplState::decode(log.state().encode());
  EXPECT_EQ(back.epoch, 1u);
  EXPECT_EQ(back.session_base, 100u);
  EXPECT_EQ(back.proxy_incarnations, 7u);
  EXPECT_EQ(back.origin_seq, 13u);
  EXPECT_EQ(back.members.size(), 2u);
  EXPECT_EQ(back.members.at(5).subs.size(), 1u);
  EXPECT_EQ(back.members.at(6).role, "nurse");
  ASSERT_EQ(back.spool.size(), 1u);
  EXPECT_EQ(back.spool.front().origin, origin(1, 13));
  // The spooled event decodes with its stamp restored, attribute-free.
  Event spooled = back.spool.front().decode();
  EXPECT_EQ(spooled.origin(), origin(1, 13));
  EXPECT_EQ(spooled, Event("a"));
  EXPECT_TRUE(digest_equal(back.digest(), log.state().digest()));
}

TEST(ReplState, SpoolEvictionIsBoundedAndReturned) {
  ReplLog::Limits limits;
  limits.max_spool_events = 3;
  ReplLog log(limits);
  log.set_epoch(1);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    auto evicted = log.spool_append(origin(1, s), event_bytes("a"));
    if (s <= 3) {
      EXPECT_TRUE(evicted.empty());
    } else {
      // Every entry that falls off the budget is handed back so the bus
      // can account it as a staleness-shed before the record disappears.
      ASSERT_EQ(evicted.size(), 1u);
      EXPECT_EQ(evicted.front().origin.seq, s - 3);
    }
  }
  EXPECT_EQ(log.state().spool.size(), 3u);
  EXPECT_EQ(log.state().spool.front().origin.seq, 3u);
}

// ---- ReplLog → ReplMirror: the streaming contract.

TEST(ReplMirror, SnapshotThenIncrementsApply) {
  ReplLog log = seeded_log();
  ReplMirror m;
  EXPECT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.state().members.size(), 1u);

  log.sub_added(ServiceId(5), 2, fb());
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.state().members.at(5).subs.size(), 2u);
  EXPECT_EQ(m.version(), log.version());

  log.member_purged(ServiceId(5));
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.state().members.empty());
  EXPECT_TRUE(digest_equal(m.state().digest(), log.state().digest()));
}

TEST(ReplMirror, IncrementBeforeFullSnapshotNeedsResync) {
  ReplLog log = seeded_log();
  log.sub_added(ServiceId(5), 2, fb());
  ReplMirror m;
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kResyncNeeded);
  EXPECT_FALSE(m.synced());
}

TEST(ReplMirror, VersionGapNeedsResync) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);

  log.sub_added(ServiceId(5), 2, fb());
  (void)log.take_update();  // lost in transit
  log.sub_removed(ServiceId(5), 1);
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kResyncNeeded);
  EXPECT_FALSE(m.synced());

  // Recovery: the bus answers the resync request with a snapshot.
  EXPECT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), log.state().digest()));
}

TEST(ReplMirror, DigestMismatchNeedsResync) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);

  log.sub_added(ServiceId(5), 2, fb());
  ReplUpdate u = log.take_update();
  u.digest = Digest256{};  // corrupted in transit / buggy sender
  EXPECT_EQ(m.apply(u), ReplMirror::Apply::kResyncNeeded);
  // Never route a promotion off a suspect replica.
  EXPECT_FALSE(m.synced());
}

TEST(ReplMirror, SnapshotIdempotentOnWarmStandby) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ReplUpdate snap = log.snapshot();
  ASSERT_EQ(m.apply(snap), ReplMirror::Apply::kApplied);
  Digest256 before = m.state().digest();
  // The same snapshot again (admission retransmit, resync race): adopted
  // wholesale, state unchanged.
  EXPECT_EQ(m.apply(snap), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), before));
}

TEST(ReplMirror, LeaseRenewalAppliesOnlyAtMatchingVersion) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);

  ReplUpdate bare = log.take_update();
  ASSERT_TRUE(bare.lease);
  EXPECT_EQ(m.apply(bare), ReplMirror::Apply::kApplied);

  // A lease for a version we do not hold proves we missed an update.
  bare.version += 1;
  EXPECT_EQ(m.apply(bare), ReplMirror::Apply::kResyncNeeded);
}

TEST(ReplMirror, StaleEpochIsIgnoredNotResynced) {
  ReplLog old_core = seeded_log();
  ReplLog new_core;
  new_core.set_epoch(2);
  new_core.member_admitted(ServiceId(7), "sensor", "service");

  ReplMirror m;
  ASSERT_EQ(m.apply(new_core.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.epoch(), 2u);

  // The deposed core keeps streaming after the split brain: its state
  // must neither apply nor trigger a resync *from it*.
  EXPECT_EQ(m.apply(old_core.snapshot()), ReplMirror::Apply::kStaleEpoch);
  old_core.sub_added(ServiceId(5), 2, fb());
  EXPECT_EQ(m.apply(old_core.take_update()), ReplMirror::Apply::kStaleEpoch);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.state().members.count(7), 1u);
  EXPECT_EQ(m.state().members.count(5), 0u);
}

TEST(ReplMirror, TakeStateConsumesTheReplica) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  ReplState replica = m.take_state();
  EXPECT_EQ(replica.members.size(), 1u);
  EXPECT_EQ(replica.epoch, 1u);
}

// ---- Standby roster replication (DESIGN.md §13.5): the quorum
// denominator every standby arbitrates over rides in the repl stream like
// any other durable state.

TEST(ReplState, StandbyRosterRoundTripsAndChangesTheDigest) {
  ReplLog log = seeded_log();
  Digest256 before = log.state().digest();
  log.standby_admitted(ServiceId(7));
  log.standby_admitted(ServiceId(9));
  (void)log.take_update();

  ReplState back = ReplState::decode(log.state().encode());
  EXPECT_EQ(back.standbys, (std::set<std::uint64_t>{7, 9}));
  // The roster is part of the canonical identity: two states differing
  // only in it must not share a digest.
  EXPECT_FALSE(digest_equal(log.state().digest(), before));
}

TEST(ReplMirror, StandbyRosterOpsApplyIncrementally) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.state().standbys.empty());

  log.standby_admitted(ServiceId(7));
  log.standby_admitted(ServiceId(9));
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.state().standbys, (std::set<std::uint64_t>{7, 9}));

  log.standby_purged(ServiceId(7));
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.state().standbys, (std::set<std::uint64_t>{9}));
  EXPECT_TRUE(digest_equal(m.state().digest(), log.state().digest()));
}

// ---- ResyncThrottle (satellite S1): a lossy repl link must cost a bounded
// number of snapshots, not one per gap.

TEST(ResyncThrottle, GrantsAtMostOnePerInterval) {
  ResyncThrottle t(milliseconds(600));
  TimePoint now{};
  EXPECT_TRUE(t.allow(now));  // first request always goes out
  now += milliseconds(100);
  EXPECT_FALSE(t.allow(now));
  now += milliseconds(100);
  EXPECT_FALSE(t.allow(now));
  EXPECT_EQ(t.suppressed(), 2u);
  now += milliseconds(500);  // past the interval
  EXPECT_TRUE(t.allow(now));
  EXPECT_EQ(t.suppressed(), 2u);
}

// 30% of the repl stream lost: every surviving update after a gap would
// ask for a full snapshot, but the throttle caps the resyncs at one per
// min_interval — the rest are suppressed (counted) and retried on the next
// update. The mirror still converges once the link lets a snapshot through.
TEST(ResyncThrottle, LossyLinkCostsBoundedResyncs) {
  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);

  ResyncThrottle throttle(milliseconds(600));
  Rng rng(0xC0FFEE);
  constexpr int kUpdates = 200;
  constexpr auto kTick = milliseconds(50);
  TimePoint now{};
  std::uint64_t gaps = 0;
  std::uint64_t resyncs = 0;
  for (int i = 0; i < kUpdates; ++i) {
    now += kTick;
    log.sub_added(ServiceId(5), 100 + static_cast<std::uint64_t>(i), fb());
    ReplUpdate u = log.take_update();
    if (rng.chance(0.3)) continue;  // lost in transit
    if (m.apply(u) == ReplMirror::Apply::kResyncNeeded) {
      ++gaps;
      // The standby's resync path: ask only when the throttle allows, and
      // the (reliable, control-class) answer is a full snapshot.
      if (throttle.allow(now)) {
        ++resyncs;
        ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
      }
    }
  }
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(digest_equal(m.state().digest(), log.state().digest()));

  // ~30% loss over 200 updates tears the stream far more often than the
  // throttle lets a snapshot out: the cap is wall-clock, not loss-rate.
  EXPECT_GT(gaps, resyncs);
  EXPECT_GT(throttle.suppressed(), 0u);
  EXPECT_EQ(gaps, resyncs + throttle.suppressed());
  const std::uint64_t cap =
      static_cast<std::uint64_t>((kUpdates * kTick) / milliseconds(600)) + 1;
  EXPECT_LE(resyncs, cap);
}

TEST(ReplLog, RestoreSeedsPromotedCore) {
  ReplLog log = seeded_log();
  log.counters_changed(50, 3, 21);
  ReplState replica = ReplState::decode(log.state().encode());

  // The promoted core restores the replica at its own (higher) epoch.
  replica.epoch = 2;
  ReplLog promoted;
  promoted.restore(replica);
  EXPECT_EQ(promoted.state().epoch, 2u);
  EXPECT_EQ(promoted.state().members.size(), 1u);
  EXPECT_EQ(promoted.state().origin_seq, 21u);

  // A standby admitted to the promoted core starts from its snapshot.
  ReplMirror m;
  EXPECT_EQ(m.apply(promoted.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(digest_equal(m.state().digest(), promoted.state().digest()));
}

}  // namespace
}  // namespace amuse
