// ReplState / ReplLog / ReplMirror unit tests, plus the kReplUpdate wire
// codec — the warm-standby replication stream the HA core rides on
// (DESIGN.md §13). ReplMirror runs the same mirror contract as the
// InterestMirror (mirror_contract.hpp), behind its epoch fence.
#include "bus/replication.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bus/messages.hpp"
#include "common/rng.hpp"
#include "mirror_contract.hpp"
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

SharedBytes event_bytes(const char* type) { return Event(type).body(); }

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

/// The bus side of the replication stream, for the shared mirror contract.
struct ReplSender {
  using Mirror = ReplMirror;
  using Update = ReplUpdate;

  ReplSender() : log(seeded_log()) {}
  void change() { log.member_admitted(ServiceId(++members), "sensor", "x"); }
  Update full() { return log.snapshot(); }
  Update increment() { return log.take_update(); }
  Update confirm() { return log.take_update(); }  // nothing pending: a lease
  [[nodiscard]] Digest256 digest() const { return log.state().digest(); }

  ReplLog log;
  std::uint64_t members = 100;
};

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
  EXPECT_FALSE(back.repl->confirm);
  EXPECT_FALSE(back.repl->request_resync);
  EXPECT_EQ(back.repl->ops, u.ops);
  EXPECT_TRUE(digest_equal(back.repl->digest, u.digest));
}

TEST(ReplUpdateCodec, SnapshotRoundTrip) {
  ReplLog log = seeded_log();
  ReplUpdate snap = log.snapshot();
  BusMessage back = BusMessage::decode(BusMessage::repl_update(snap).encode());
  EXPECT_EQ(back.type, BusMsgType::kReplUpdate);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->full);
  EXPECT_EQ(back.repl->ops, snap.ops);
}

TEST(ReplUpdateCodec, LeaseRoundTrip) {
  ReplLog log = seeded_log();
  ReplUpdate lease = log.take_update();  // nothing pending → bare lease
  EXPECT_TRUE(lease.confirm);
  EXPECT_EQ(lease.version, log.version());
  EXPECT_TRUE(digest_equal(lease.digest, log.state().digest()));
  // Header and epoch fence, no ops.
  Bytes frame = BusMessage::repl_update(lease).encode();
  EXPECT_EQ(frame.size(), 1u + 1u + 8u + 32u + 8u);
  BusMessage back = BusMessage::decode(frame);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->confirm);
  EXPECT_EQ(back.repl->epoch, 1u);
  EXPECT_TRUE(back.repl->ops.empty());
  EXPECT_TRUE(digest_equal(back.repl->digest, lease.digest));
}

TEST(ReplUpdateCodec, ConfirmWithOpsIsRejected) {
  ReplUpdate u;
  u.epoch = 1;
  u.ops = {0x01};
  Bytes frame = BusMessage::repl_update(u).encode();
  frame[1] = 0x04;  // an incremental frame's ops behind the confirm flag
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
}

TEST(ReplUpdateCodec, ResyncRequestRoundTrip) {
  BusMessage back =
      BusMessage::decode(
          BusMessage::resync_request(BusMsgType::kReplUpdate).encode());
  EXPECT_EQ(back.type, BusMsgType::kReplUpdate);
  ASSERT_TRUE(back.repl.has_value());
  EXPECT_TRUE(back.repl->request_resync);
}

TEST(ReplUpdateCodec, RejectsUnknownFlags) {
  Bytes frame = BusMessage::resync_request(BusMsgType::kReplUpdate).encode();
  // Byte 0 is the message type; byte 1 the flag octet.
  frame[1] = 0x80;
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
}

TEST(ReplUpdateCodec, RejectsSnapshotTypeWithoutFullFlag) {
  // Type 9, the retired snapshot type, is rejected with or without the
  // `full` flag: a snapshot is a full kReplUpdate.
  ReplLog log = seeded_log();
  Bytes frame = BusMessage::repl_update(log.snapshot()).encode();
  ASSERT_EQ(frame[0], 8u);
  frame[0] = 9;
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
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

// ---- ReplLog → ReplMirror: the mirror contract (mirror_contract.hpp),
// then the replication-specific cases.

TEST(ReplMirror, SnapshotIdempotentOnWarmStandby) {
  mirror_contract::full_replaces_and_is_idempotent<ReplSender>();
}

TEST(ReplMirror, SnapshotThenIncrementsApply) {
  mirror_contract::increments_apply_in_sequence<ReplSender>();

  ReplLog log = seeded_log();
  ReplMirror m;
  ASSERT_EQ(m.apply(log.snapshot()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.state().members.size(), 1u);
  log.sub_added(ServiceId(5), 2, fb());
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_EQ(m.state().members.at(5).subs.size(), 2u);
  log.member_purged(ServiceId(5));
  EXPECT_EQ(m.apply(log.take_update()), ReplMirror::Apply::kApplied);
  EXPECT_TRUE(m.state().members.empty());
}

TEST(ReplMirror, LeaseRenewalAppliesOnlyAtMatchingVersion) {
  // A lease is a confirm: it applies when the standby holds the core's
  // state, and after a real missed increment it triggers a resync.
  mirror_contract::confirm_adopts_the_version_it_names<ReplSender>();
  mirror_contract::confirm_of_another_state_resyncs_never_wedges<ReplSender>();
}

TEST(ReplMirror, VersionGapNeedsResync) {
  mirror_contract::version_gap_resyncs<ReplSender>();
}

TEST(ReplMirror, DigestMismatchNeedsResync) {
  mirror_contract::digest_mismatch_refuses_the_frame<ReplSender>();
}

TEST(ReplMirror, IncrementBeforeFullSnapshotNeedsResync) {
  mirror_contract::increment_before_full_resyncs<ReplSender>();
}

TEST(ReplMirror, LeaseBeforeAnySnapshotNeedsResync) {
  mirror_contract::confirm_before_any_state_resyncs<ReplSender>();
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
