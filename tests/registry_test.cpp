// Subscription-registry tests: member ↔ matcher bookkeeping and the
// "each interested member exactly once" matching contract.
#include "bus/subscription_registry.hpp"

#include <gtest/gtest.h>

#include "pubsub/fastforward_matcher.hpp"

namespace amuse {
namespace {

ServiceId member_a() { return ServiceId(0xA); }
ServiceId member_b() { return ServiceId(0xB); }

SubscriptionRegistry make_registry() {
  return SubscriptionRegistry(std::make_unique<FastForwardMatcher>());
}

TEST(Registry, MatchGroupsByMember) {
  auto reg = make_registry();
  reg.subscribe(member_a(), 1, Filter::for_type("t"));
  reg.subscribe(member_b(), 9, Filter::for_type("t"));

  SubscriptionRegistry::MatchResult hit;
  reg.match(Event("t"), hit);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[member_a()], (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(hit[member_b()], (std::vector<std::uint64_t>{9}));
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
  EXPECT_EQ(hit[member_a()], (std::vector<std::uint64_t>{1, 2}));
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
  EXPECT_EQ(hit[member_a()], (std::vector<std::uint64_t>{1}));
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
  EXPECT_EQ(hit[member_a()], (std::vector<std::uint64_t>{2}));
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
  EXPECT_EQ(hit[member_b()], (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace amuse
