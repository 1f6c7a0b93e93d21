// Tests for type-based publish/subscribe (§VI future work): the type
// registry (hierarchy, schema validation) and the typed client over a live
// bus.
#include <gtest/gtest.h>

#include "bus/event_bus.hpp"
#include "lossless_network.hpp"
#include "sim/sim_executor.hpp"
#include "typed/typed_client.hpp"

namespace amuse {
namespace {

TEST(TypeRegistry, DeclareAndFind) {
  TypeRegistry reg;
  reg.declare("base", {{"x", ValueType::kInt, true}});
  reg.declare("derived", "base", {{"y", ValueType::kString, false}});
  ASSERT_NE(reg.find("base"), nullptr);
  ASSERT_NE(reg.find("derived"), nullptr);
  EXPECT_EQ(reg.find("nope"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(TypeRegistry, RejectsBadDeclarations) {
  TypeRegistry reg;
  reg.declare("a", {{"x", ValueType::kInt, true}});
  EXPECT_THROW(reg.declare("a", {}), TypeError);             // duplicate
  EXPECT_THROW(reg.declare("b", "missing", {}), TypeError);  // bad parent
  // Field redefinition with a different type.
  EXPECT_THROW(reg.declare("c", "a", {{"x", ValueType::kString, true}}),
               TypeError);
  // Same type is fine (narrowing required-ness etc.).
  EXPECT_NO_THROW(reg.declare("d", "a", {{"x", ValueType::kInt, false}}));
}

TEST(TypeRegistry, SubtypeRelation) {
  TypeRegistry reg;
  declare_ehealth_types(reg);
  EXPECT_TRUE(reg.is_subtype("vitals.heartrate", "vitals"));
  EXPECT_TRUE(reg.is_subtype("vitals", "vitals"));
  EXPECT_FALSE(reg.is_subtype("vitals", "vitals.heartrate"));
  EXPECT_FALSE(reg.is_subtype("alarm.cardiac", "vitals"));
  EXPECT_FALSE(reg.is_subtype("ghost", "vitals"));
  EXPECT_EQ(reg.subtree("vitals").size(), 5u);  // itself + 4 subtypes
  EXPECT_EQ(reg.subtree("alarm").size(), 4u);
}

TEST(TypeRegistry, FieldsAreInherited) {
  TypeRegistry reg;
  declare_ehealth_types(reg);
  auto fields = reg.find("vitals.heartrate")->all_fields();
  bool has_member = false;
  bool has_hr = false;
  for (const FieldSpec& f : fields) {
    has_member |= f.name == "member";
    has_hr |= f.name == "hr";
  }
  EXPECT_TRUE(has_member);  // inherited from "vitals"
  EXPECT_TRUE(has_hr);      // own
}

TEST(TypeRegistry, ValidationEnforcesSchema) {
  TypeRegistry reg;
  declare_ehealth_types(reg);

  Event good("vitals.heartrate");
  good.set("member", std::int64_t{1});
  good.set("hr", 72.0);
  EXPECT_EQ(reg.validate(good), std::nullopt);

  Event unknown("made.up.tag");  // the "arbitrary tag" the paper wants gone
  EXPECT_TRUE(reg.validate(unknown).has_value());

  Event missing("vitals.heartrate");
  missing.set("member", std::int64_t{1});  // no hr
  EXPECT_TRUE(reg.validate(missing).has_value());

  Event wrong_type("vitals.heartrate");
  wrong_type.set("member", std::int64_t{1});
  wrong_type.set("hr", "seventy-two");
  EXPECT_TRUE(reg.validate(wrong_type).has_value());

  // Numeric family unified: int where double is declared is fine.
  Event int_hr("vitals.heartrate");
  int_hr.set("member", std::int64_t{1});
  int_hr.set("hr", 72);
  EXPECT_EQ(reg.validate(int_hr), std::nullopt);

  // Optional fields may be absent but must be well-typed when present.
  Event bad_optional("vitals.heartrate");
  bad_optional.set("member", std::int64_t{1});
  bad_optional.set("hr", 72.0);
  bad_optional.set("alarm", "yes");  // declared kBool
  EXPECT_TRUE(reg.validate(bad_optional).has_value());

  Event no_type;
  EXPECT_TRUE(reg.validate(no_type).has_value());
}

TEST(TypeRegistry, SubscriptionFiltersCoverSubtree) {
  TypeRegistry reg;
  declare_ehealth_types(reg);
  Filter refinement;
  refinement.where("member", Op::kEq, std::int64_t{9});
  auto filters = reg.subscription_filters("alarm", refinement);
  ASSERT_EQ(filters.size(), 4u);
  for (const Filter& f : filters) {
    EXPECT_EQ(f.size(), 2u);  // type pin + refinement
  }
  EXPECT_TRUE(reg.subscription_filters("ghost").empty());
}

// ---- TypedClient over a live bus.

struct TypedFixture : ::testing::Test {
  TypedFixture() : net(ex), bus(ex, net.create_endpoint()) {
    declare_ehealth_types(registry);
  }

  std::unique_ptr<BusClient> make_client() {
    auto t = net.create_endpoint();
    bus.add_member(MemberInfo{t->local_id(), "svc", "service"});
    return std::make_unique<BusClient>(ex, std::move(t), bus.bus_id());
  }

  SimExecutor ex;
  LosslessNetwork net;
  EventBus bus;
  TypeRegistry registry;
};

TEST_F(TypedFixture, SubtypeSubscriptionReceivesAllConcreteTypes) {
  auto pub_raw = make_client();
  auto sub_raw = make_client();
  TypedClient pub(*pub_raw, registry);
  TypedClient sub(*sub_raw, registry);

  std::vector<std::string> got;
  sub.subscribe("vitals", [&](const Event& e) { got.emplace_back(e.type()); });
  ex.run();

  Event hr("vitals.heartrate");
  hr.set("member", std::int64_t{1});
  hr.set("hr", 72.0);
  ASSERT_TRUE(pub.publish(hr));
  Event spo2("vitals.spo2");
  spo2.set("member", std::int64_t{1});
  spo2.set("spo2", 97.0);
  ASSERT_TRUE(pub.publish(spo2));
  Event alarm("alarm.cardiac");
  alarm.set("level", "high");
  ASSERT_TRUE(pub.publish(alarm));  // not a vitals subtype
  ex.run();

  EXPECT_EQ(got, (std::vector<std::string>{"vitals.heartrate",
                                           "vitals.spo2"}));
}

TEST_F(TypedFixture, ExactlyOneDeliveryPerEvent) {
  auto pub_raw = make_client();
  auto sub_raw = make_client();
  TypedClient pub(*pub_raw, registry);
  TypedClient sub(*sub_raw, registry);
  int calls = 0;
  sub.subscribe("vitals", [&](const Event&) { ++calls; });
  ex.run();
  Event hr("vitals.heartrate");
  hr.set("member", std::int64_t{1});
  hr.set("hr", 72.0);
  ASSERT_TRUE(pub.publish(hr));
  ex.run();
  // Even though the subtree subscription registered 5 filters, only the
  // concrete type's filter matches — one handler call.
  EXPECT_EQ(calls, 1);
}

TEST_F(TypedFixture, SchemaRejectionNeverReachesTheBus) {
  auto pub_raw = make_client();
  TypedClient pub(*pub_raw, registry);
  Event bad("vitals.heartrate");  // missing required member + hr
  EXPECT_FALSE(pub.publish(bad));
  EXPECT_EQ(pub.stats().schema_rejections, 1u);
  EXPECT_FALSE(pub.last_error().empty());
  ex.run();
  EXPECT_EQ(bus.stats().published, 0u);
}

TEST_F(TypedFixture, RefinementConstrainsContent) {
  auto pub_raw = make_client();
  auto sub_raw = make_client();
  TypedClient pub(*pub_raw, registry);
  TypedClient sub(*sub_raw, registry);
  int high = 0;
  Filter refinement;
  refinement.where("hr", Op::kGt, 120.0);
  sub.subscribe("vitals", [&](const Event&) { ++high; }, refinement);
  ex.run();
  for (double hr : {80.0, 150.0}) {
    Event e("vitals.heartrate");
    e.set("member", std::int64_t{1});
    e.set("hr", hr);
    ASSERT_TRUE(pub.publish(e));
  }
  ex.run();
  EXPECT_EQ(high, 1);
}

TEST_F(TypedFixture, UnsubscribeRemovesWholeSubtree) {
  auto pub_raw = make_client();
  auto sub_raw = make_client();
  TypedClient pub(*pub_raw, registry);
  TypedClient sub(*sub_raw, registry);
  int calls = 0;
  std::uint64_t id = sub.subscribe("alarm", [&](const Event&) { ++calls; });
  ex.run();
  sub.unsubscribe(id);
  ex.run();
  Event alarm("alarm.fever");
  alarm.set("level", "warning");
  ASSERT_TRUE(pub.publish(alarm));
  ex.run();
  EXPECT_EQ(calls, 0);
}

TEST_F(TypedFixture, UnknownTypeSubscriptionFails) {
  auto sub_raw = make_client();
  TypedClient sub(*sub_raw, registry);
  EXPECT_EQ(sub.subscribe("no.such.type", [](const Event&) {}), 0u);
  EXPECT_FALSE(sub.last_error().empty());
}

}  // namespace
}  // namespace amuse
