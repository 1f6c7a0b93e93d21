// Subscription-registry tests: member ↔ matcher bookkeeping and the
// "each interested member exactly once" matching contract.
#include "bus/subscription_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pubsub/fastforward_matcher.hpp"

namespace amuse {
namespace {

ServiceId member_a() { return ServiceId(0xA); }
ServiceId member_b() { return ServiceId(0xB); }

SubscriptionRegistry make_registry() {
  return SubscriptionRegistry(std::make_unique<FastForwardMatcher>());
}

/// The local ids `hit` lists for `member` (empty when absent).
std::vector<std::uint64_t> locals_of(
    const SubscriptionRegistry::MatchResult& hit, ServiceId member) {
  for (const auto& [m, locals] : hit) {
    if (m == member) return {locals.begin(), locals.end()};
  }
  return {};
}

TEST(Registry, MatchGroupsByMember) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("t"));
  reg.subscribe(member_b(), 9, Filter::for_type("t"));

  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("t"), hit);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(locals_of(hit, member_b()), (std::vector<std::uint64_t>{9}));
}

TEST(Registry, MemberListedOncePerEventWithAllMatchingSubs) {
  auto reg = make_registry();
  // Two overlapping subscriptions from one member: the member must appear
  // once, with both local ids — the bus then delivers the event once.
  reg.subscribe(member_a(), 1, Filter::for_type("vitals.heartrate"));
  reg.subscribe(member_a(), 2, Filter::for_type_prefix("vitals."));
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("vitals.heartrate"), hit);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Registry, ResubscribeReplacesFilter) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("old"));
  reg.subscribe(member_a(), 1, Filter::for_type("new"));
  EXPECT_EQ(reg.size(), 1u);
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("old"), hit);
  EXPECT_TRUE(hit.empty());
  reg.match(Event("new"), hit);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{1}));
}

TEST(Registry, ResubscribeReplacesInPlace) {
  auto reg = make_registry();
  for (std::uint64_t local : {1u, 2u, 3u}) {
    reg.subscribe(member_a(), local,
                  Filter::for_type("t" + std::to_string(local)));
  }
  reg.subscribe(member_a(), 2, Filter::for_type("new"));
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.member_subscriptions(member_a()), 3u);
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("t2"), hit);
  EXPECT_TRUE(hit.empty());
  reg.match(Event("new"), hit);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{2}));
  auto subs = reg.subscriptions_of(member_a());
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs.at(2), Filter::for_type("new"));
  reg.unsubscribe(member_a(), 2);
  reg.match(Event("new"), hit);
  EXPECT_TRUE(hit.empty());
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, SubscriptionsStayAscendingForOutOfOrderIds) {
  auto reg = make_registry();
  // Out of order, as an HA restore or a re-subscribe delivers them.
  for (std::uint64_t local : {5u, 1u, 9u, 3u, 7u}) {
    reg.subscribe(member_a(), local, Filter::for_type(std::to_string(local)));
  }
  reg.unsubscribe(member_a(), 3);
  reg.subscribe(member_a(), 2, Filter::for_type("2"));
  std::vector<std::uint64_t> locals;
  for (const auto& [local, filter] : reg.subscriptions_of(member_a())) {
    locals.push_back(local);
    EXPECT_EQ(filter, Filter::for_type(std::to_string(local)));
  }
  EXPECT_EQ(locals, (std::vector<std::uint64_t>{1, 2, 5, 7, 9}));
  auto all = reg.subscriptions_by_member();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.at(member_a()).size(), 5u);
  EXPECT_EQ(all.at(member_a()).begin()->first, 1u);
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("7"), hit);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{7}));
}

TEST(Registry, UnsubscribeRemovesOnlyThatSubscription) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("t"));
  reg.subscribe(member_a(), 2, Filter::for_type("t"));
  reg.unsubscribe(member_a(), 1);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.member_subscriptions(member_a()), 1u);
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("t"), hit);
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{2}));
}

TEST(Registry, UnsubscribeUnknownIsNoop) {
  auto reg = make_registry();
  reg.unsubscribe(member_a(), 1);
  reg.subscribe(member_a(), 1, Filter::for_type("t"));
  reg.unsubscribe(member_a(), 99);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, RemoveMemberDropsEverything) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("t"));
  reg.subscribe(member_a(), 2, Filter::for_type_prefix("t"));
  reg.subscribe(member_b(), 1, Filter::for_type("t"));
  reg.remove_member(member_a());
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.member_subscriptions(member_a()), 0u);
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("t"), hit);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_TRUE(hit.contains(member_b()));
}

TEST(Registry, LocalIdsIndependentAcrossMembers) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("a"));
  reg.subscribe(member_b(), 1, Filter::for_type("b"));
  EXPECT_EQ(reg.size(), 2u);
  reg.unsubscribe(member_a(), 1);
  // member_b's local id 1 must be untouched.
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("b"), hit);
  EXPECT_EQ(locals_of(hit, member_b()), (std::vector<std::uint64_t>{1}));
}

TEST(Registry, MatchResultIsSortedAndUnique) {
  auto reg = make_registry();
  // Subscribed out of order, across members, with overlapping filters.
  for (std::uint64_t local : {7u, 3u, 5u}) {
    reg.subscribe(member_b(), local, Filter::for_type_prefix("v"));
  }
  for (std::uint64_t local : {9u, 2u}) {
    reg.subscribe(member_a(), local, Filter::for_type("vitals"));
  }
  reg.subscribe(ServiceId(0x5), 4, Filter::for_type("other"));
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("vitals"), hit);
  ASSERT_EQ(hit.size(), 2u);
  std::vector<ServiceId> members;
  for (const auto& [member, locals] : hit) {
    members.push_back(member);
    EXPECT_TRUE(std::is_sorted(locals.begin(), locals.end()));
    EXPECT_EQ(std::adjacent_find(locals.begin(), locals.end()), locals.end())
        << "duplicate local id for " << member.to_string();
  }
  EXPECT_EQ(members, (std::vector<ServiceId>{member_a(), member_b()}));
  EXPECT_EQ(locals_of(hit, member_a()), (std::vector<std::uint64_t>{2, 9}));
  EXPECT_EQ(locals_of(hit, member_b()), (std::vector<std::uint64_t>{3, 5, 7}));
}

TEST(Registry, ReusedMatchResultIsReplacedNotAppended) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("a"));
  reg.subscribe(member_b(), 2, Filter::for_type("b"));
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("a"), hit);
  ASSERT_EQ(hit.size(), 1u);
  reg.match(Event("b"), hit);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_FALSE(hit.contains(member_a()));
  EXPECT_EQ(locals_of(hit, member_b()), (std::vector<std::uint64_t>{2}));
  hit.clear();
  EXPECT_TRUE(hit.empty());
  EXPECT_EQ(hit.begin(), hit.end());
  reg.match(Event("nobody"), hit);
  EXPECT_TRUE(hit.empty());
}

TEST(Registry, ContainsFindsExactlyTheMatchedMembers) {
  auto reg = make_registry();
  for (std::uint64_t m = 1; m <= 9; ++m) {
    reg.subscribe(ServiceId(m * 3), 1,
                  Filter::for_type(m % 2 == 0 ? "even" : "odd"));
  }
  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("even"), hit);
  EXPECT_EQ(hit.size(), 4u);
  for (std::uint64_t raw = 0; raw <= 30; ++raw) {
    std::uint64_t m = raw / 3;
    bool want = raw % 3 == 0 && m >= 1 && m <= 9 && m % 2 == 0;
    EXPECT_EQ(hit.contains(ServiceId(raw)), want) << raw;
  }
}

}  // namespace
}  // namespace amuse
