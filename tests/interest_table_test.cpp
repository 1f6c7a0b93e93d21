// InterestTable / InterestMirror / OriginDedup unit tests, plus the
// kInterestUpdate wire codec — the one filter-table stream federation and
// quenching ride on (DESIGN.md §11).
#include "bus/interest_table.hpp"

#include <gtest/gtest.h>

#include <string>

#include "bus/messages.hpp"
#include "mirror_contract.hpp"

namespace amuse {
namespace {

Filter fa() { return Filter::for_type("a"); }
Filter fb() { return Filter::for_type_prefix("b."); }
Filter fc() { return Filter().where("x", Op::kGt, 3); }

/// The bus side of a gateway link's interest stream, for the shared
/// mirror contract (mirror_contract.hpp).
struct InterestSender {
  using Mirror = InterestMirror;
  using Update = InterestUpdate;

  InterestSender() { change(); }
  void change() {
    filters.push_back(Filter::for_type("t" + std::to_string(filters.size())));
    table.rebuild({{ServiceId(1), filters}});
  }
  Update full() { return table.full_update(kLink); }
  Update increment() { return *table.refresh_link(kLink); }
  Update confirm() { return table.full_update(kLink, digest()); }
  [[nodiscard]] Digest256 digest() const {
    return table.export_for(kLink).digest();
  }

  static constexpr ServiceId kLink{9};
  InterestTable table;
  std::vector<Filter> filters;
};

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

TEST(InterestUpdateCodec, DigestOnlyRoundTrip) {
  // A confirm carries the digest and nothing else: header only, no table.
  InterestUpdate u;
  u.version = 4;
  u.confirm = true;
  u.digest = FilterSet({fa()}).digest();
  Bytes frame = BusMessage::interest_update(u).encode();
  EXPECT_EQ(frame.size(), 1u + 1u + 8u + 32u);
  BusMessage back = BusMessage::decode(frame);
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_TRUE(back.interest->confirm);
  EXPECT_FALSE(back.interest->full);
  EXPECT_EQ(back.interest->version, 4u);
  EXPECT_TRUE(back.interest->added.empty());
  EXPECT_TRUE(digest_equal(back.interest->digest, u.digest));
}

TEST(InterestUpdateCodec, ConfirmStandsAloneWithoutABody) {
  InterestUpdate with_table;
  with_table.full = true;
  with_table.added = {fa()};
  Bytes frame = BusMessage::interest_update(with_table).encode();
  // Byte 0 is the message type; byte 1 the flag octet.
  frame[1] = 0x04;  // a confirm followed by a table
  EXPECT_THROW((void)BusMessage::decode(frame), DecodeError);
  InterestUpdate confirm;
  confirm.confirm = true;
  frame = BusMessage::interest_update(confirm).encode();
  for (std::uint8_t flags : {0x05, 0x06, 0x07}) {  // with full / resync
    frame[1] = flags;
    EXPECT_THROW((void)BusMessage::decode(frame), DecodeError)
        << static_cast<int>(flags);
  }
}

TEST(InterestUpdateCodec, EmptyFullTableIsNotDigestOnly) {
  // An empty cell's full table carries no filters, just like a confirm;
  // only the flag tells them apart.
  InterestUpdate empty;
  empty.version = 1;
  empty.full = true;
  empty.digest = FilterSet().digest();
  BusMessage back =
      BusMessage::decode(BusMessage::interest_update(empty).encode());
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_TRUE(back.interest->full);
  EXPECT_FALSE(back.interest->confirm);
}

TEST(InterestUpdateCodec, ResyncRequestRoundTrip) {
  BusMessage back =
      BusMessage::decode(
          BusMessage::resync_request(BusMsgType::kInterestUpdate).encode());
  EXPECT_EQ(back.type, BusMsgType::kInterestUpdate);
  ASSERT_TRUE(back.interest.has_value());
  EXPECT_TRUE(back.interest->request_resync);
  EXPECT_TRUE(back.interest->added.empty());
}

TEST(InterestUpdateCodec, RejectsUnknownFlags) {
  Bytes frame =
      BusMessage::resync_request(BusMsgType::kInterestUpdate).encode();
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

  // The cell view holds everything …
  EXPECT_EQ(t.export_for(kCellView).size(), 2u);
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
  // The cell view (quenching) is compacted like every link's view.
  EXPECT_EQ(t.export_for(kCellView).size(), 1u);
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

TEST(InterestTable, FullUpdateConfirmsAHeldDigest) {
  ServiceId member(1);
  ServiceId link(9);
  InterestTable t;
  t.rebuild({{member, {fa(), fc()}}});
  Digest256 held = t.export_for(link).digest();

  InterestUpdate confirm = t.full_update(link, held);
  EXPECT_TRUE(confirm.confirm);
  EXPECT_FALSE(confirm.full);
  EXPECT_TRUE(confirm.added.empty());
  EXPECT_TRUE(digest_equal(confirm.digest, held));

  // Anything else held — or nothing — gets the table itself.
  InterestUpdate resend = t.full_update(link, FilterSet({fa()}).digest());
  EXPECT_FALSE(resend.confirm);
  EXPECT_TRUE(resend.full);
  EXPECT_EQ(resend.added.size(), 2u);
  EXPECT_FALSE(t.full_update(link).confirm);
}

TEST(InterestTable, CellViewIsSharedAndKeepsItsVersion) {
  ServiceId a(1);
  ServiceId b(2);
  InterestTable t;
  t.rebuild({{a, {fa()}}, {b, {fb()}}});

  // The first full update seeds the shared view at version 1; serving
  // another member must not bump it, or every other mirror on the stream
  // would see a version gap on the next diff.
  InterestUpdate first = t.full_update(kCellView);
  InterestUpdate second = t.full_update(kCellView);
  EXPECT_EQ(first.version, 1u);
  EXPECT_EQ(second.version, 1u);
  EXPECT_EQ(first.added.size(), 2u);  // no split horizon

  InterestMirror m1;
  InterestMirror m2;
  ASSERT_EQ(m1.apply(first), InterestMirror::Apply::kApplied);
  ASSERT_EQ(m2.apply(second), InterestMirror::Apply::kApplied);
  // One diff per change, applied by every mirror on the stream.
  t.rebuild({{a, {fa(), fc()}}, {b, {fb()}}});
  auto diff = t.refresh_link(kCellView);
  ASSERT_TRUE(diff.has_value());
  EXPECT_FALSE(diff->full);
  EXPECT_EQ(diff->version, 2u);
  EXPECT_EQ(m1.apply(*diff), InterestMirror::Apply::kApplied);
  EXPECT_EQ(m2.apply(*diff), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m1.interests().contains(fc()));
  EXPECT_FALSE(t.refresh_link(kCellView).has_value());
}

// ---- InterestMirror: the member-side replica. The mirror contract cases
// (mirror_contract.hpp) first, then the interest-specific ones.

TEST(InterestMirror, FullTableIsIdempotent) {
  mirror_contract::full_replaces_and_is_idempotent<InterestSender>();
}

TEST(InterestMirror, AppliesFullThenIncrements) {
  mirror_contract::increments_apply_in_sequence<InterestSender>();
}

TEST(InterestMirror, ConfirmAdoptsTheVersionItNames) {
  mirror_contract::confirm_adopts_the_version_it_names<InterestSender>();
}

TEST(InterestMirror, DigestOnlyOnADifferentTableResyncsNeverWedges) {
  mirror_contract::confirm_of_another_state_resyncs_never_wedges<
      InterestSender>();
}

TEST(InterestMirror, VersionGapNeedsResync) {
  mirror_contract::version_gap_resyncs<InterestSender>();
}

TEST(InterestMirror, DigestMismatchNeedsResync) {
  mirror_contract::digest_mismatch_refuses_the_frame<InterestSender>();
}

TEST(InterestMirror, IncrementBeforeFullTableNeedsResync) {
  mirror_contract::increment_before_full_resyncs<InterestSender>();
}

TEST(InterestMirror, ConfirmBeforeAnyTableNeedsResync) {
  mirror_contract::confirm_before_any_state_resyncs<InterestSender>();
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

TEST(InterestMirror, DigestOnlyConfirmsTheHeldTable) {
  InterestTable t;
  ServiceId member(1);
  t.rebuild({{member, {fa(), fb()}}});
  InterestMirror m;
  ASSERT_EQ(m.apply(t.full_update(kCellView)), InterestMirror::Apply::kApplied);

  // Carried across a re-join: the table is kept but no longer vouched for.
  m.suspend();
  EXPECT_FALSE(m.synced());
  EXPECT_EQ(m.interests().size(), 2u);

  InterestTable fresh;  // e.g. a promoted core, same canonical set
  fresh.rebuild({{member, {fa(), fb()}}});
  InterestUpdate confirm = fresh.full_update(kCellView, m.held_digest());
  ASSERT_TRUE(confirm.confirm);
  EXPECT_EQ(m.apply(confirm), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_EQ(m.interests().size(), 2u);
  EXPECT_EQ(m.version(), confirm.version);
}

TEST(InterestMirror, EmptyFullTableReplacesRatherThanConfirms) {
  InterestMirror m;
  InterestUpdate held;
  held.version = 1;
  held.full = true;
  held.added = {fa()};
  held.digest = FilterSet({fa()}).digest();
  ASSERT_EQ(m.apply(held), InterestMirror::Apply::kApplied);

  InterestTable empty_cell;
  InterestUpdate empty = empty_cell.full_update(kCellView, m.held_digest());
  ASSERT_FALSE(empty.confirm);
  EXPECT_EQ(m.apply(empty), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(m.synced());
  EXPECT_TRUE(m.interests().empty());
}

TEST(InterestMirror, HeldDigestIsZeroUntilATableArrives) {
  InterestMirror m;
  EXPECT_TRUE(digest_equal(m.held_digest(), Digest256{}));
  InterestTable t;  // an empty cell still sends a real (empty) table
  ASSERT_EQ(m.apply(t.full_update(kCellView)), InterestMirror::Apply::kApplied);
  EXPECT_TRUE(digest_equal(m.held_digest(), FilterSet().digest()));
  m.reset();
  EXPECT_TRUE(digest_equal(m.held_digest(), Digest256{}));
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
