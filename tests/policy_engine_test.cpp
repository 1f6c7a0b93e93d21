// Policy service tests: the obligation engine (ECA execution, runtime
// enable/disable, cascade protection), authorisation decisions, and
// type-driven policy deployment.
#include <gtest/gtest.h>

#include "bus/event_bus.hpp"
#include "discovery/discovery_service.hpp"
#include "lossless_network.hpp"
#include "policy/authorisation.hpp"
#include "policy/deployment.hpp"
#include "policy/obligation_engine.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

struct PolicyFixture : ::testing::Test {
  PolicyFixture() : net(ex), bus(ex, net.create_endpoint()) {}

  SimExecutor ex;
  LosslessNetwork net;
  EventBus bus;
  PolicyStore store;
};

TEST_F(PolicyFixture, ObligationFiresOnMatchingEvent) {
  store.load_text(R"(
    policy high_hr on vitals.heartrate
      when hr > 120
      do publish alarm.cardiac { level = "high", hr = hr };
  )");
  ObligationEngine engine(bus, store);
  engine.start();

  std::vector<Event> alarms;
  bus.subscribe_local(Filter::for_type("alarm.cardiac"),
                      [&](const Event& e) { alarms.push_back(e); });

  bus.publish_local(Event("vitals.heartrate", {{"hr", 150}}));
  bus.publish_local(Event("vitals.heartrate", {{"hr", 80}}));
  ex.run();

  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].get_string("level"), "high");
  EXPECT_EQ(alarms[0].get_int("hr"), 150);
  EXPECT_EQ(alarms[0].get_string("x-policy"), "high_hr");
  EXPECT_EQ(engine.stats().triggers, 2u);
  EXPECT_EQ(engine.stats().conditions_false, 1u);
  EXPECT_EQ(engine.stats().publishes, 1u);
}

TEST_F(PolicyFixture, AbsentSourceAttributesAreOmitted) {
  store.load_text(R"(
    policy p on t do publish out { copy = missing, present = hr };
  )");
  ObligationEngine engine(bus, store);
  engine.start();
  std::vector<Event> out;
  bus.subscribe_local(Filter::for_type("out"),
                      [&](const Event& e) { out.push_back(e); });
  bus.publish_local(Event("t", {{"hr", 70}}));
  ex.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].has("copy"));
  EXPECT_EQ(out[0].get_int("present"), 70);
}

TEST_F(PolicyFixture, DisableStopsFiringEnableResumes) {
  store.load_text(R"(policy p on t do publish out { };)");
  ObligationEngine engine(bus, store);
  engine.start();
  int fired = 0;
  bus.subscribe_local(Filter::for_type("out"),
                      [&](const Event&) { ++fired; });

  bus.publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(fired, 1);

  store.disable("p");
  bus.publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(fired, 1);

  store.enable("p");
  bus.publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(fired, 2);
}

TEST_F(PolicyFixture, InitiallyDisabledPoliciesDoNotFire) {
  store.load_text(R"(policy p disabled on t do publish out { };)");
  ObligationEngine engine(bus, store);
  engine.start();
  int fired = 0;
  bus.subscribe_local(Filter::for_type("out"),
                      [&](const Event&) { ++fired; });
  bus.publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(store.is_enabled("p"));
}

TEST_F(PolicyFixture, PoliciesGovernPolicies) {
  // An escalation policy disables itself and enables a stronger one —
  // "policies also govern … the policy service itself".
  store.load_text(R"(
    policy escalate on alarm.cardiac
      do enable emergency disable escalate;
    policy emergency disabled on vitals.heartrate
      do publish actuator.defib.fire { joules = 150 };
  )");
  ObligationEngine engine(bus, store);
  engine.start();
  int fires = 0;
  bus.subscribe_local(Filter::for_type("actuator.defib.fire"),
                      [&](const Event&) { ++fires; });

  bus.publish_local(Event("vitals.heartrate", {{"hr", 200}}));
  ex.run();
  EXPECT_EQ(fires, 0);  // emergency not yet enabled

  bus.publish_local(Event("alarm.cardiac"));
  ex.run();
  EXPECT_TRUE(store.is_enabled("emergency"));
  EXPECT_FALSE(store.is_enabled("escalate"));

  bus.publish_local(Event("vitals.heartrate", {{"hr", 200}}));
  ex.run();
  EXPECT_EQ(fires, 1);
}

TEST_F(PolicyFixture, CascadeDepthIsBounded) {
  // Two policies that trigger each other forever without the chain guard.
  store.load_text(R"(
    policy ping on a do publish b { };
    policy pong on b do publish a { };
  )");
  ObligationEngineConfig cfg;
  cfg.max_chain_depth = 6;
  ObligationEngine engine(bus, store, cfg);
  engine.start();
  bus.publish_local(Event("a"));
  ex.run();
  EXPECT_GE(engine.stats().chain_suppressed, 1u);
  // 6 chained publishes at most (plus the seed event).
  EXPECT_LE(bus.stats().published, 8u);
}

TEST_F(PolicyFixture, RemovedPolicyStopsFiring) {
  store.load_text(R"(policy p on t do publish out { };)");
  ObligationEngine engine(bus, store);
  engine.start();
  int fired = 0;
  bus.subscribe_local(Filter::for_type("out"),
                      [&](const Event&) { ++fired; });
  bus.publish_local(Event("t"));
  ex.run();
  ASSERT_EQ(fired, 1);
  EXPECT_TRUE(store.remove("p"));
  EXPECT_FALSE(store.remove("p"));
  bus.publish_local(Event("t"));
  ex.run();
  EXPECT_EQ(fired, 1);
}

// ---- Authorisation.

TEST(Authorisation, FirstMatchWinsThenDefault) {
  PolicyStore store;
  store.load_text(R"(
    auth deny role "sensor" subscribe "control.*";
    auth permit role "sensor" subscribe "*";
    auth deny role * publish "actuator.*";
    auth default permit;
  )");
  AuthorisationService auth(store);
  EXPECT_FALSE(auth.check("sensor", AuthOp::kSubscribe, "control.threshold"));
  EXPECT_TRUE(auth.check("sensor", AuthOp::kSubscribe, "vitals.heartrate"));
  EXPECT_FALSE(auth.check("nurse", AuthOp::kPublish, "actuator.defib.fire"));
  EXPECT_TRUE(auth.check("nurse", AuthOp::kPublish, "notes.shift"));
  EXPECT_EQ(auth.stats().checks, 4u);
  EXPECT_EQ(auth.stats().denials, 2u);
}

TEST(Authorisation, DefaultDenyLockdown) {
  PolicyStore store;
  store.load_text(R"(
    auth permit role "nurse" subscribe "vitals.*";
    auth default deny;
  )");
  AuthorisationService auth(store);
  EXPECT_TRUE(auth.check("nurse", AuthOp::kSubscribe, "vitals.spo2"));
  EXPECT_FALSE(auth.check("nurse", AuthOp::kPublish, "vitals.spo2"));
  EXPECT_FALSE(auth.check("guest", AuthOp::kSubscribe, "vitals.spo2"));
}

TEST(Authorisation, BusAdapterUsesMemberRole) {
  PolicyStore store;
  store.load_text(R"(auth deny role "guest" publish "*";)");
  AuthorisationService auth(store);
  EventBus::Authoriser fn = auth.authoriser();
  MemberInfo guest{ServiceId(1), "console", "guest"};
  MemberInfo nurse{ServiceId(2), "console", "nurse"};
  EXPECT_FALSE(fn(guest, AuthAction::kPublish, "x"));
  EXPECT_TRUE(fn(nurse, AuthAction::kPublish, "x"));
  EXPECT_TRUE(fn(guest, AuthAction::kSubscribe, "x"));
}

// ---- Deployment.

TEST_F(PolicyFixture, DeploymentEnablesPoliciesAndSendsControlEvents) {
  store.load_text(R"(
    policy hr_watch disabled on vitals.heartrate do log "watching";
  )");
  ObligationEngine engine(bus, store);
  engine.start();
  PolicyDeployer deployer(bus, store);
  DeploymentRule rule;
  rule.device_type_prefix = "sensor.heartrate";
  rule.enable_policies = {"hr_watch"};
  Event threshold("control.threshold");
  threshold.set("value", 140.0);
  rule.control_events = {threshold};
  deployer.add_rule(rule);
  deployer.start();

  std::vector<Event> control;
  bus.subscribe_local(Filter::for_type("control.threshold"),
                      [&](const Event& e) { control.push_back(e); });

  // Simulate the discovery service's New Member event.
  Event nm(smc_events::kNewMember);
  nm.set("member", std::int64_t{0xAA});
  nm.set("device_type", "sensor.heartrate");
  nm.set("role", "sensor");
  bus.publish_local(nm);
  ex.run();

  EXPECT_TRUE(store.is_enabled("hr_watch"));
  ASSERT_EQ(control.size(), 1u);
  EXPECT_EQ(control[0].get_int("member"), 0xAA);
  EXPECT_DOUBLE_EQ(control[0].get_double("value"), 140.0);
  EXPECT_EQ(deployer.stats().rules_applied, 1u);

  // A different device type matches no rule.
  Event other(smc_events::kNewMember);
  other.set("member", std::int64_t{0xBB});
  other.set("device_type", "sensor.temperature");
  bus.publish_local(other);
  ex.run();
  EXPECT_EQ(deployer.stats().rules_applied, 1u);
  EXPECT_EQ(deployer.stats().admissions_seen, 2u);
}

}  // namespace
}  // namespace amuse
