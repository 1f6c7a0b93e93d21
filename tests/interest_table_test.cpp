// InterestTable / InterestMirror / OriginDedup unit tests, plus the
// kInterestUpdate wire codec — the routing state machine federation rides
// on (DESIGN.md §11).
#include "bus/interest_table.hpp"

#include <gtest/gtest.h>

#include "bus/messages.hpp"

namespace amuse {
namespace {

Filter fa() { return Filter::for_type("a"); }
Filter fb() { return Filter::for_type_prefix("b."); }
Filter fc() { return Filter().where("x", Op::kGt, 3); }

// ---- Wire codec.

TEST(InterestUpdateCodec, FullUpdateRoundTrip) {
  InterestUpdate u;
  u.version = 7;
  u.full = true;
  u.added = {fa(), fb()};
  FilterSet table(u.added);
  u.digest = table.digest();

  BusMessage back = BusMessage::decode(BusMessage::interest_update(u).encode());
  EXPECT_EQ(back.type, BusMsgType::kInterestUpdate);
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_EQ(back.interest->version, 7u);
  EXPECT_TRUE(back.interest->full);
  EXPECT_FALSE(back.interest->request_resync);
  EXPECT_EQ(back.interest->added, u.added);
  EXPECT_TRUE(back.interest->removed.empty());
  EXPECT_TRUE(digest_equal(back.interest->digest, u.digest));
}

TEST(InterestUpdateCodec, IncrementalRoundTrip) {
  InterestUpdate u;
  u.version = 3;
  u.added = {fc()};
  u.removed = {fa(), fb()};
  BusMessage back = BusMessage::decode(BusMessage::interest_update(u).encode());
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_FALSE(back.interest->full);
  EXPECT_EQ(back.interest->added, u.added);
  EXPECT_EQ(back.interest->removed, u.removed);
}

TEST(InterestUpdateCodec, ResyncRequestRoundTrip) {
  BusMessage back =
      BusMessage::decode(BusMessage::interest_resync_request().encode());
  EXPECT_EQ(back.type, BusMsgType::kInterestUpdate);
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_TRUE(back.interest->request_resync);
  EXPECT_TRUE(back.interest->added.empty());
}

TEST(InterestUpdateCodec, RejectsUnknownFlags) {
  Bytes frame = BusMessage::interest_resync_request().encode();
  // Byte 0 is the message type; byte 1 the flag octet.
  frame[1] = 0x80;
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
}

// ---- InterestTable: split-horizon export views and versioned diffs.

TEST(InterestTable, ExportViewExcludesTheLinkItself) {
  ServiceId member(1);
  ServiceId gateway(2);
  InterestTable t;
  t.rebuild({{member, {fa()}}, {gateway, {fb()}}});

  // The quench view holds everything …
  EXPECT_EQ(t.all().size(), 2u);
  // … but the gateway's export never echoes its own interests back.
  FilterSet for_gateway = t.export_for(gateway);
  EXPECT_EQ(for_gateway.size(), 1u);
  EXPECT_TRUE(for_gateway.contains(fa()));
  // A different link sees the gateway's interests.
  FilterSet for_member = t.export_for(member);
  EXPECT_TRUE(for_member.contains(fb()));
}

TEST(InterestTable, ExportViewIsCompacted) {
  ServiceId member(1);
  InterestTable t;
  t.rebuild({{member,
              {Filter::for_type_prefix("alarm."),
               Filter::for_type("alarm.cardiac")}}});
  EXPECT_EQ(t.all().size(), 2u);  // quench view stays uncompacted
  FilterSet exported = t.export_for(ServiceId(9));
  EXPECT_EQ(exported.size(), 1u);
  EXPECT_TRUE(exported.contains(Filter::for_type_prefix("alarm.")));
}

TEST(InterestTable, RefreshLinkDiffsAgainstLastPush) {
  ServiceId member(1);
  ServiceId link(9);
  InterestTable t;
  t.rebuild({{member, {fa()}}});

  auto first = t.refresh_link(link);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->full);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->added, std::vector<Filter>{fa()});

  // Unchanged view → nothing to push.
  EXPECT_FALSE(t.refresh_link(link).has_value());
  EXPECT_EQ(t.link_version(link), 1u);

  t.rebuild({{member, {fa(), fc()}}});
  auto second = t.refresh_link(link);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->full);
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(second->added, std::vector<Filter>{fc()});
  EXPECT_TRUE(second->removed.empty());

  t.rebuild({{member, {fc()}}});
  auto third = t.refresh_link(link);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->removed, std::vector<Filter>{fa()});
}

TEST(InterestTable, DropLinkForcesFullPushOnReturn) {
  ServiceId member(1);
  ServiceId link(9);
  InterestTable t;
  t.rebuild({{member, {fa()}}});
  ASSERT_TRUE(t.refresh_link(link).has_value());
  t.drop_link(link);
  EXPECT_EQ(t.link_version(link), 0u);
  auto again = t.refresh_link(link);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->full);
}

TEST(InterestTable, FullUpdateAlwaysBumpsVersion) {
  ServiceId member(1);
  ServiceId link(9);
  InterestTable t;
  t.rebuild({{member, {fa()}}});
  ASSERT_TRUE(t.refresh_link(link).has_value());
  // A resync for an unchanged table must still carry a fresh version so a
  // rejoined mirror adopts it unconditionally.
  InterestUpdate resync = t.full_update(link);
  EXPECT_TRUE(resync.full);
  EXPECT_EQ(resync.version, 2u);
  EXPECT_EQ(resync.added, std::vector<Filter>{fa()});
}

// ---- InterestMirror: the gateway-side replica.

TEST(InterestMirror, AppliesFullThenIncrements) {
  InterestTable t;
  InterestMirror m;
  ServiceId member(1);
  ServiceId link(9);

  t.rebuild({{member, {fa()}}});
  EXPECT_EQ(m.apply(*t.refresh_link(link)), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(m.interests().contains(fa()));

  t.rebuild({{member, {fa(), fc()}}});
  EXPECT_EQ(m.apply(*t.refresh_link(link)), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m.interests().contains(fc()));
  EXPECT_EQ(m.version(), t.link_version(link));
}

TEST(InterestMirror, IncrementBeforeFullTableNeedsResync) {
  InterestMirror m;
  InterestUpdate inc;
  inc.version = 1;
  inc.added = {fa()};
  EXPECT_EQ(m.apply(inc), InterestMirror::Apply::kResyncNeeded);
  EXPECT_FALSE(m.synced());
}

TEST(InterestMirror, VersionGapNeedsResync) {
  InterestTable t;
  InterestMirror m;
  ServiceId member(1);
  ServiceId link(9);
  t.rebuild({{member, {fa()}}});
  ASSERT_EQ(m.apply(*t.refresh_link(link)), InterestMirror::Apply::kApplied);

  // Two rebuilds; the first increment is lost in transit.
  t.rebuild({{member, {fa(), fb()}}});
  (void)t.refresh_link(link);  // v2, never delivered
  t.rebuild({{member, {fa(), fb(), fc()}}});
  auto v3 = t.refresh_link(link);
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(m.apply(*v3), InterestMirror::Apply::kResyncNeeded);
  EXPECT_FALSE(m.synced());

  // Recovery: the bus answers with a full table.
  EXPECT_EQ(m.apply(t.full_update(link)), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.interests().size(), 3u);
}

TEST(InterestMirror, DigestMismatchNeedsResync) {
  InterestMirror m;
  InterestUpdate full;
  full.version = 1;
  full.full = true;
  full.added = {fa()};
  full.digest = FilterSet({fa()}).digest();
  ASSERT_EQ(m.apply(full), InterestMirror::Apply::kApplied);

  InterestUpdate inc;
  inc.version = 2;
  inc.added = {fb()};
  inc.digest = FilterSet({fb(), fc()}).digest();  // table disagrees
  EXPECT_EQ(m.apply(inc), InterestMirror::Apply::kResyncNeeded);
  EXPECT_FALSE(m.synced());
}

TEST(InterestMirror, ResetForgetsEverything) {
  InterestMirror m;
  InterestUpdate full;
  full.version = 5;
  full.full = true;
  full.added = {fa()};
  full.digest = FilterSet({fa()}).digest();
  ASSERT_EQ(m.apply(full), InterestMirror::Apply::kApplied);
  m.reset();
  EXPECT_FALSE(m.synced());
  EXPECT_EQ(m.version(), 0u);
  EXPECT_TRUE(m.interests().empty());
}

// ---- OriginDedup: first-arrival-wins over Origin{cell, epoch, seq}.

Origin at(std::uint64_t cell, std::uint64_t seq, std::uint64_t epoch = 1) {
  return Origin{ServiceId(cell), epoch, seq};
}

TEST(OriginDedup, FirstArrivalWins) {
  OriginDedup d;
  EXPECT_TRUE(d.admit(at(1, 1)));
  EXPECT_FALSE(d.admit(at(1, 1)));  // multipath duplicate
  EXPECT_TRUE(d.admit(at(1, 2)));
  EXPECT_TRUE(d.admit(at(2, 1)));  // origins are independent
  EXPECT_FALSE(d.admit(at(2, 1)));
}

TEST(OriginDedup, KeyHoldsCellAndEpoch) {
  // Two cells — and two epochs of one cell (split-brain cores) — count
  // sequences independently: the same seq under either is a new event.
  OriginDedup d;
  EXPECT_TRUE(d.admit(at(1, 7, 1)));
  EXPECT_TRUE(d.admit(at(2, 7, 1)));
  EXPECT_TRUE(d.admit(at(1, 7, 2)));
  EXPECT_FALSE(d.admit(at(2, 7, 1)));
  EXPECT_FALSE(d.admit(at(1, 7, 2)));
}

TEST(OriginDedup, OutOfOrderWithinWindowAdmits) {
  OriginDedup d;
  EXPECT_TRUE(d.admit(at(1, 5)));
  EXPECT_TRUE(d.admit(at(1, 3)));  // reordered, never seen — route it
  EXPECT_FALSE(d.admit(at(1, 3)));
}

TEST(OriginDedup, EvictedSeqsArePresumedSeen) {
  OriginDedup d(4);
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_TRUE(d.admit(at(1, s)));
  // seq 1 fell off the window: dedup over-drops rather than re-routing.
  EXPECT_FALSE(d.admit(at(1, 1)));
  // In-window stamps keep exact semantics.
  EXPECT_FALSE(d.admit(at(1, 5)));
  EXPECT_TRUE(d.admit(at(1, 6)));
}

TEST(OriginDedup, ClearForgets) {
  OriginDedup d;
  EXPECT_TRUE(d.admit(at(1, 1)));
  d.clear();
  EXPECT_TRUE(d.admit(at(1, 1)));
}

}  // namespace
}  // namespace amuse
