// Federation tests: peer-to-peer event sharing between cells through
// dual-homed gateway members, with interest-driven routing and one
// immutable origin stamp for loop termination, multi-path dedup and
// failover dedup (DESIGN.md §11, §13) — no mutable hop counters. Every
// test runs the real path: discovery, gateway-role admission, interest
// pushes, and kPublish/kEvent frames carrying the stamp in their header.
#include <gtest/gtest.h>

#include <map>

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/gateway.hpp"

namespace amuse {
namespace {

// Cells, members and one-way gateway links on one simulated network.
struct FederationNet {
  explicit FederationNet(std::uint64_t seed = 0xF3D) : net(ex, seed) {
    net.set_default_link(profiles::usb_ip_link());
  }

  SelfManagedCell& add_cell(const std::string& name, bool ha = false) {
    SimHost& host = net.add_host(name + "-core", profiles::ideal_host());
    core_hosts.push_back(&host);
    SmcCellConfig cfg;
    cfg.name = name;
    cfg.pre_shared_key = to_bytes("key-" + name);
    cfg.bus.ha = ha;
    cfg.discovery.beacon_interval = milliseconds(300);
    cfg.discovery.heartbeat_interval = milliseconds(300);
    core_endpoints.push_back({net.create_endpoint(host),
                              net.create_endpoint(host), cfg});
    cells.emplace_back();
    start_core(cells.size() - 1);
    return *cells.back();
  }

  /// A fresh core for cell `i` on its old endpoints — the same bus id, and
  /// nothing else carried over (a cold restart).
  SelfManagedCell& start_core(std::size_t i) {
    const CoreEndpoints& ep = core_endpoints[i];
    cells[i].reset();
    cells[i] = std::make_unique<SelfManagedCell>(ex, ep.bus, ep.discovery,
                                                 ep.config);
    cells[i]->start();
    return *cells[i];
  }

  std::unique_ptr<SmcMember> make_member(SimHost& host,
                                         const std::string& cell,
                                         const std::string& role) {
    SmcMemberConfig mc;
    mc.agent.cell_name = cell;
    mc.agent.pre_shared_key = to_bytes("key-" + cell);
    mc.agent.device_type = role;
    mc.agent.role = role;
    mc.agent.cell_lost_after = seconds(5);
    mc.offline_buffer = 64;
    return std::make_unique<SmcMember>(ex, net.create_endpoint(host), mc);
  }

  /// A started plain member of `cell` on its own host.
  SmcMember& add_member(const std::string& cell, const std::string& role) {
    std::string name = cell + "-" + role + std::to_string(members.size());
    SimHost& host = net.add_host(name, profiles::ideal_host());
    members.push_back(make_member(host, cell, role));
    members.back()->start();
    return *members.back();
  }

  /// A one-way link `from` → `to`: a dual-homed host with one gateway-role
  /// member in each cell and the gateway forwarding between them.
  FederationGateway& link(const std::string& from, const std::string& to) {
    SimHost& host =
        net.add_host("gw-" + from + "-" + to, profiles::ideal_host());
    members.push_back(make_member(host, from, std::string(kGatewayRole)));
    SmcMember& in_from = *members.back();
    members.push_back(make_member(host, to, std::string(kGatewayRole)));
    SmcMember& in_to = *members.back();
    gateways.push_back(std::make_unique<FederationGateway>(in_from, in_to));
    in_from.start();
    in_to.start();
    return *gateways.back();
  }

  SimExecutor ex;
  SimNetwork net;
  struct CoreEndpoints {
    std::shared_ptr<SimTransport> bus;
    std::shared_ptr<SimTransport> discovery;
    SmcCellConfig config;
  };
  std::vector<SimHost*> core_hosts;  // one per cell, in add_cell order
  std::vector<CoreEndpoints> core_endpoints;
  std::vector<std::unique_ptr<SelfManagedCell>> cells;
  std::vector<std::unique_ptr<SmcMember>> members;
  // Declared last: gateways go before the members they subscribe through.
  std::vector<std::unique_ptr<FederationGateway>> gateways;
};

struct FederationFixture : ::testing::Test, FederationNet {
  FederationFixture()
      : cell_a(add_cell("cell-a")), cell_b(add_cell("cell-b")) {}

  /// Joins, interest pushes and the reconciles they trigger.
  void settle() { ex.run_for(seconds(5)); }

  SelfManagedCell& cell_a;
  SelfManagedCell& cell_b;
};

TEST_F(FederationFixture, SharedEventsCrossCells) {
  FederationGateway& gw = link("cell-a", "cell-b");
  gw.share(Filter::for_type_prefix("alarm."));

  std::vector<Event> in_b;
  cell_b.bus().subscribe_local(Filter::for_type_prefix("alarm."),
                               [&](const Event& e) { in_b.push_back(e); });
  settle();
  auto forwarded = gw.stats().forwarded;

  cell_a.bus().publish_local(Event("alarm.cardiac", {{"level", "high"}}));
  cell_a.bus().publish_local(Event("vitals.heartrate"));  // not shared
  ex.run_for(seconds(3));

  ASSERT_EQ(in_b.size(), 1u);
  EXPECT_EQ(in_b[0].type(), "alarm.cardiac");
  // The immutable origin stamp (origin cell, its epoch, its sequence) is
  // bus metadata: the event's content is exactly what was published.
  EXPECT_EQ(in_b[0].origin().cell, cell_a.bus().bus_id());
  EXPECT_EQ(in_b[0].origin().epoch, 1u);
  EXPECT_GT(in_b[0].origin().seq, 0u);
  EXPECT_EQ(in_b[0], Event("alarm.cardiac", {{"level", "high"}}));
  EXPECT_EQ(gw.stats().forwarded - forwarded, 1u);
}

TEST_F(FederationFixture, BidirectionalBridgesTerminateLoops) {
  FederationGateway& ab = link("cell-a", "cell-b");
  FederationGateway& ba = link("cell-b", "cell-a");
  ab.share(Filter::for_type("alarm.cardiac"));
  ba.share(Filter::for_type("alarm.cardiac"));

  int seen_a = 0;
  int seen_b = 0;
  cell_a.bus().subscribe_local(Filter::for_type("alarm.cardiac"),
                               [&](const Event&) { ++seen_a; });
  cell_b.bus().subscribe_local(Filter::for_type("alarm.cardiac"),
                               [&](const Event&) { ++seen_b; });
  settle();
  auto forwarded = ab.stats().forwarded;
  auto loopback = ba.stats().loopback_suppressed;

  cell_a.bus().publish_local(Event("alarm.cardiac"));
  ex.run_for(seconds(3));

  // Exactly-once per live member: the copy in b is recognised as a's own
  // event by the reverse gateway and never bounces home — no hop counter,
  // and no duplicate delivery in a.
  EXPECT_EQ(seen_b, 1);
  EXPECT_EQ(seen_a, 1);
  EXPECT_EQ(ab.stats().forwarded - forwarded, 1u);
  EXPECT_EQ(ba.stats().loopback_suppressed - loopback, 1u);
}

TEST_F(FederationFixture, MultipleShares) {
  FederationGateway& gw = link("cell-a", "cell-b");
  gw.share(Filter::for_type("a"));
  gw.share(Filter::for_type("b"));
  // Nobody in cell b subscribes to any of them: only the static shares can
  // carry them across. Watch what cell b routes.
  std::vector<std::string> types;
  BusObserver tap;
  tap.on_publish = [&](const Event& e) {
    if (e.type().size() == 1) types.emplace_back(e.type());
  };
  cell_b.bus().set_observer(tap);
  settle();

  cell_a.bus().publish_local(Event("a"));
  cell_a.bus().publish_local(Event("b"));
  cell_a.bus().publish_local(Event("c"));
  ex.run_for(seconds(3));
  EXPECT_EQ(types, (std::vector<std::string>{"a", "b"}));
}

TEST_F(FederationFixture, OverlappingSharesForwardOnce) {
  FederationGateway& gw = link("cell-a", "cell-b");
  gw.share(Filter::for_type_prefix("alarm."));
  gw.share(Filter::for_type("alarm.cardiac"));  // covered by the prefix

  int seen_b = 0;
  cell_b.bus().subscribe_local(Filter::for_type("alarm.cardiac"),
                               [&](const Event&) { ++seen_b; });
  settle();
  auto forwarded = gw.stats().forwarded;
  auto dups = gw.stats().local_dups_suppressed;

  cell_a.bus().publish_local(Event("alarm.cardiac"));
  ex.run_for(seconds(3));

  EXPECT_EQ(seen_b, 1);
  EXPECT_EQ(gw.stats().forwarded - forwarded, 1u);
  // Both shares and cell b's interest subscription matched one delivery.
  EXPECT_EQ(gw.stats().local_dups_suppressed - dups, 2u);
}

TEST_F(FederationFixture, SelfOriginatedEventNeverRoutesTwice) {
  (void)link("cell-a", "cell-b");
  SmcMember& gw_in_a = *members.front();
  int seen = 0;
  cell_a.bus().subscribe_local(Filter::for_type("x"),
                               [&](const Event&) { ++seen; });
  settle();
  ASSERT_TRUE(gw_in_a.joined());
  ASSERT_TRUE(cell_a.bus().federation_enabled());
  cell_a.bus().publish_local(Event("x"));
  ex.run_for(seconds(1));
  ASSERT_EQ(seen, 1);

  // An event a gateway relays under a stamp naming *this* cell must be a
  // loop come home: it dies before it counts as published.
  Event echo("x");
  echo.set_origin(Origin{cell_a.bus().bus_id(), 1, 1});
  auto published_before = cell_a.bus().stats().published;
  auto dropped_before = cell_a.bus().stats().fed_duplicates_dropped;
  ASSERT_TRUE(gw_in_a.publish(std::move(echo)));
  ex.run_for(seconds(2));
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(cell_a.bus().stats().published, published_before);
  EXPECT_EQ(cell_a.bus().stats().fed_duplicates_dropped - dropped_before, 1u);
}

TEST(FederationTopology, DiamondDeliversExactlyOnce) {
  // Multi-path: a → {b, c} → d. d hears the event over two paths and must
  // deliver it exactly once, dropping the second arrival by origin stamp.
  FederationNet fed;
  for (const char* name : {"a", "b", "c", "d"}) (void)fed.add_cell(name);
  SelfManagedCell& a = *fed.cells[0];
  SelfManagedCell& d = *fed.cells[3];
  FederationGateway& ab = fed.link("a", "b");
  FederationGateway& ac = fed.link("a", "c");
  FederationGateway& bd = fed.link("b", "d");
  FederationGateway& cd = fed.link("c", "d");
  for (FederationGateway* gw : {&ab, &ac, &bd, &cd}) {
    gw->share(Filter::for_type("x"));
  }

  int seen_d = 0;
  d.bus().subscribe_local(Filter::for_type("x"),
                          [&](const Event&) { ++seen_d; });
  fed.ex.run_for(seconds(6));
  auto dropped = d.bus().stats().fed_duplicates_dropped;
  auto crossed = bd.stats().forwarded + cd.stats().forwarded;

  a.bus().publish_local(Event("x"));
  fed.ex.run_for(seconds(4));

  EXPECT_EQ(seen_d, 1);
  EXPECT_EQ(d.bus().stats().fed_duplicates_dropped - dropped, 1u);
  EXPECT_EQ(bd.stats().forwarded + cd.stats().forwarded - crossed, 2u);
}

TEST(FederationTopology, CycleTerminatesWithoutHopCounter) {
  FederationNet fed;
  for (const char* name : {"a", "b", "c"}) (void)fed.add_cell(name);
  FederationGateway& ab = fed.link("a", "b");
  FederationGateway& bc = fed.link("b", "c");
  FederationGateway& ca = fed.link("c", "a");
  for (FederationGateway* gw : {&ab, &bc, &ca}) {
    gw->share(Filter::for_type("x"));
  }

  int seen[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    fed.cells[static_cast<std::size_t>(i)]->bus().subscribe_local(
        Filter::for_type("x"), [&seen, i](const Event&) { ++seen[i]; });
  }
  fed.ex.run_for(seconds(6));
  auto loopback = ca.stats().loopback_suppressed;

  fed.cells[0]->bus().publish_local(Event("x"));
  fed.ex.run_for(seconds(4));

  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 1);
  EXPECT_EQ(seen[2], 1);
  // The c → a gateway recognises a's own event and never re-injects it.
  EXPECT_EQ(ca.stats().loopback_suppressed - loopback, 1u);
}

// ---- One origin stamp: federation and HA share it, and only gateways
// may relay one.

TEST(FederationOrigin, HaCellsKeepEachOthersStampsApart) {
  // Two HA cells, a gateway a → b sharing alarms, one console in b. Each
  // cell counts its stamps from 1 at epoch 1: only the cell in the key
  // keeps a's relayed alarms from colliding with b's own in the console's
  // dedup window.
  FederationNet fed;
  SelfManagedCell& a = fed.add_cell("cell-a", /*ha=*/true);
  SelfManagedCell& b = fed.add_cell("cell-b", /*ha=*/true);
  fed.link("cell-a", "cell-b").share(Filter::for_type_prefix("alarm."));
  SmcMember& console = fed.add_member("cell-b", "nurse");
  std::map<std::string, int> got;
  (void)console.subscribe(Filter::for_type_prefix("alarm."),
                          [&](const Event& e) { ++got[e.get_string("cell")]; });
  fed.ex.run_for(seconds(5));
  ASSERT_TRUE(console.joined());

  for (int i = 0; i < 40; ++i) {
    a.bus().publish_local(Event("alarm.cardiac", {{"cell", "a"}, {"n", i}}));
    b.bus().publish_local(Event("alarm.cardiac", {{"cell", "b"}, {"n", i}}));
  }
  fed.ex.run_for(seconds(10));

  EXPECT_EQ(got["a"], 40);
  EXPECT_EQ(got["b"], 40);
  EXPECT_EQ(console.stats().ha_duplicates_dropped, 0u);
}

TEST(FederationOrigin, ColdRestartedCoreIsNotMistakenForDuplicates) {
  // A federated cell without HA has no standby: its core comes back cold
  // on the same bus id and stamps (cell, 1) from seq 1 again. A member that
  // stays up through the crash must take those stamps as new events.
  FederationNet fed;
  fed.add_cell("cell-a");
  fed.add_cell("cell-b");
  fed.link("cell-a", "cell-b").share(Filter::for_type_prefix("alarm."));
  SmcMember& console = fed.add_member("cell-a", "nurse");
  int got = 0;
  int stamped = 0;
  (void)console.subscribe(Filter::for_type_prefix("alarm."),
                          [&](const Event& e) {
                            ++got;
                            if (e.origin().stamped()) ++stamped;
                          });
  fed.ex.run_for(seconds(5));
  ASSERT_TRUE(console.joined());

  auto publish_alarms = [&] {
    for (int i = 0; i < 30; ++i) {
      fed.cells[0]->bus().publish_local(Event("alarm.cardiac", {{"n", i}}));
    }
    fed.ex.run_for(seconds(5));
  };
  publish_alarms();
  ASSERT_EQ(got, 30);

  // Crash: the core is gone long enough for its members to notice, then
  // starts afresh on the same endpoints.
  const ServiceId bus_id = fed.cells[0]->bus().bus_id();
  fed.cells[0].reset();
  fed.ex.run_for(seconds(8));
  ASSERT_FALSE(console.joined());
  SelfManagedCell& restarted = fed.start_core(0);
  fed.ex.run_for(seconds(8));
  ASSERT_TRUE(console.joined());
  ASSERT_EQ(restarted.bus().bus_id(), bus_id);

  publish_alarms();
  EXPECT_EQ(got, 60);
  EXPECT_EQ(stamped, 60);  // the gateway re-joined: federation is back on
  EXPECT_EQ(console.stats().ha_duplicates_dropped, 0u);
}

TEST(FederationOrigin, ForgedOriginIsReplacedNotTrusted) {
  FederationNet fed;
  SelfManagedCell& cell = fed.add_cell("cell", /*ha=*/true);
  SmcMember& forger = fed.add_member("cell", "sensor");
  SmcMember& console = fed.add_member("cell", "nurse");
  std::vector<Event> got;
  (void)console.subscribe(Filter::for_type_prefix("vitals."),
                          [&](const Event& e) { got.push_back(e); });
  fed.ex.run_for(seconds(5));
  ASSERT_TRUE(forger.joined() && console.joined());

  // A plain member claims a foreign stamp — twice. Trusted, the first copy
  // would reach the console under the forged key and the second would die
  // as its duplicate.
  const Origin forged{ServiceId(0xBAD), 7, 7};
  for (int n = 1; n <= 2; ++n) {
    Event e("vitals.heartrate", {{"n", n}});
    e.set_origin(forged);
    (void)forger.publish(std::move(e));
  }
  fed.ex.run_for(seconds(3));

  ASSERT_EQ(got.size(), 2u);
  for (const Event& e : got) {
    EXPECT_EQ(e.origin().cell, cell.bus().bus_id());
    EXPECT_NE(e.origin(), forged);
  }
  EXPECT_NE(got[0].origin(), got[1].origin());
  EXPECT_EQ(cell.bus().stats().origins_replaced, 2u);
  EXPECT_EQ(cell.bus().stats().fed_duplicates_dropped, 0u);
  EXPECT_EQ(console.stats().ha_duplicates_dropped, 0u);
}

TEST(FederationOrigin, FiltersCannotMatchTheStamp) {
  // The origin stamp is bus metadata, not content: filters on stamp-like
  // attribute names match nothing, in the origin cell or across the link.
  FederationNet fed;
  SelfManagedCell& a = fed.add_cell("cell-a", /*ha=*/true);
  SelfManagedCell& b = fed.add_cell("cell-b", /*ha=*/true);
  fed.link("cell-a", "cell-b").share(Filter());
  int stamp_matches = 0;
  int in_b = 0;
  for (SelfManagedCell* cell : {&a, &b}) {
    for (const char* attr : {"x-ha-epoch", "x-ha-seq", "x-fed-cell",
                             "x-fed-seq"}) {
      cell->bus().subscribe_local(Filter().where(attr, Op::kExists),
                                  [&](const Event&) { ++stamp_matches; });
    }
  }
  b.bus().subscribe_local(Filter::for_type("x"), [&](const Event& e) {
    EXPECT_EQ(e.origin().cell, a.bus().bus_id());
    ++in_b;
  });
  fed.ex.run_for(seconds(5));
  for (int i = 0; i < 5; ++i) a.bus().publish_local(Event("x", {{"n", i}}));
  fed.ex.run_for(seconds(3));

  EXPECT_EQ(in_b, 5);
  EXPECT_EQ(stamp_matches, 0);
}

// ---- One gateway link whose members and lifetime the test controls.

struct GatewayFixture : ::testing::Test, FederationNet {
  GatewayFixture()
      : cell_a(&add_cell("cell-a")),
        cell_b(&add_cell("cell-b")),
        host_b(core_hosts[1]),
        gw_host(&net.add_host("gateway", profiles::ideal_host())),
        gw_in_a(make_member(*gw_host, "cell-a", std::string(kGatewayRole))),
        gw_in_b(make_member(*gw_host, "cell-b", std::string(kGatewayRole))),
        gateway(std::make_unique<FederationGateway>(*gw_in_a, *gw_in_b)) {}

  SelfManagedCell* cell_a;
  SelfManagedCell* cell_b;
  SimHost* host_b;
  SimHost* gw_host;
  std::unique_ptr<SmcMember> gw_in_a;
  std::unique_ptr<SmcMember> gw_in_b;
  std::unique_ptr<FederationGateway> gateway;
};

TEST_F(GatewayFixture, InterestDrivenForwarding) {
  gw_in_a->start();
  gw_in_b->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());

  // No static share: the only reason anything crosses is cell b's own
  // aggregated interest, learned through the kInterestUpdate push and
  // subscribed in cell a by the gateway.
  std::vector<Event> in_b;
  cell_b->bus().subscribe_local(Filter::for_type_prefix("alarm."),
                                [&](const Event& e) { in_b.push_back(e); });
  ex.run_for(seconds(2));  // interest propagates a-ward
  EXPECT_GT(gateway->interest_subscriptions(), 0u);

  auto suppressed_before = cell_a->bus().stats().fed_events_suppressed;
  cell_a->bus().publish_local(Event("alarm.cardiac", {{"level", "high"}}));
  cell_a->bus().publish_local(Event("vitals.heartrate"));  // nobody remote
  ex.run_for(seconds(3));

  ASSERT_EQ(in_b.size(), 1u);
  EXPECT_EQ(in_b[0].type(), "alarm.cardiac");
  EXPECT_EQ(in_b[0].origin().cell, cell_a->bus().bus_id());
  EXPECT_EQ(gateway->stats().forwarded, 1u);
  // The event nobody downstream wanted crossed zero links.
  EXPECT_GT(cell_a->bus().stats().fed_events_suppressed, suppressed_before);
  EXPECT_GT(cell_b->bus().stats().interests_propagated, 0u);
  // Different pre-shared keys: each cell only admitted its own members.
  EXPECT_EQ(cell_a->bus().members().size(), 1u);
  EXPECT_EQ(cell_b->bus().members().size(), 1u);
}

TEST_F(GatewayFixture, EncodesStayFlatAcrossTwoCellFanOut) {
  gateway->share(Filter::for_type_prefix("alarm."));
  gw_in_a->start();
  gw_in_b->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());

  int in_b = 0;
  cell_b->bus().subscribe_local(Filter::for_type_prefix("alarm."),
                                [&](const Event&) { ++in_b; });
  ex.run_for(seconds(2));

  auto enc_a = cell_a->bus().stats().encodes;
  auto pub_a = cell_a->bus().stats().published;
  auto enc_b = cell_b->bus().stats().encodes;
  auto pub_b = cell_b->bus().stats().published;
  for (int i = 0; i < 8; ++i) {
    cell_a->bus().publish_local(Event("alarm.cardiac", {{"n", i}}));
  }
  ex.run_for(seconds(3));
  EXPECT_EQ(in_b, 8);

  // Encode-once across cells (PR 2's invariant extended to federation):
  // each bus serialises a forwarded event at most once, regardless of the
  // fan-out on either side — never per member, never per hop extra.
  EXPECT_LE(cell_a->bus().stats().encodes - enc_a,
            cell_a->bus().stats().published - pub_a);
  EXPECT_LE(cell_b->bus().stats().encodes - enc_b,
            cell_b->bus().stats().published - pub_b);
  EXPECT_GE(cell_a->bus().stats().published - pub_a, 8u);
}

TEST_F(GatewayFixture, DestinationOutageBuffersAndFlushes) {
  gateway->share(Filter::for_type("alarm.cardiac"));
  gw_in_a->start();
  gw_in_b->start();
  ex.run_for(seconds(3));

  int in_b = 0;
  cell_b->bus().subscribe_local(Filter::for_type("alarm.cardiac"),
                                [&](const Event&) { ++in_b; });

  // Cell B's core goes dark; once the gateway's B-side member notices the
  // loss (cell_lost_after = 5 s), forwarded events land in its offline
  // buffer …
  host_b->set_up(false);
  ex.run_for(seconds(11));  // past the loss-detection window
  cell_a->bus().publish_local(Event("alarm.cardiac", {{"level", "high"}}));
  ex.run_for(seconds(3));
  EXPECT_EQ(in_b, 0);

  // … and flushes when cell B returns and the gateway re-joins.
  host_b->set_up(true);
  ex.run_for(seconds(15));
  EXPECT_EQ(in_b, 1);
}

TEST_F(GatewayFixture, RejoinResyncsInterestTable) {
  gw_in_a->start();
  gw_in_b->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());

  cell_b->bus().subscribe_local(Filter::for_type("alarm.cardiac"),
                                [&](const Event&) {});
  ex.run_for(seconds(2));
  auto subs_before = gateway->interest_subscriptions();
  EXPECT_GT(subs_before, 0u);

  // The gateway crashes (network-wise) long enough for both cells to purge
  // it and for it to notice the loss.
  gw_host->set_up(false);
  ex.run_for(seconds(12));
  EXPECT_FALSE(gw_in_b->joined());

  // Cell b's interests change while the gateway is gone: a stale mirror
  // would route on the old table and miss this.
  int ecg_in_b = 0;
  cell_b->bus().subscribe_local(Filter::for_type("vitals.ecg"),
                                [&](const Event& e) {
                                  (void)e;
                                  ++ecg_in_b;
                                });

  gw_host->set_up(true);
  ex.run_for(seconds(15));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());

  // Admission pushed a full table; the rejoined incarnation routes on the
  // *new* interests.
  cell_a->bus().publish_local(Event("vitals.ecg", {{"bpm", 72}}));
  ex.run_for(seconds(3));
  EXPECT_EQ(ecg_in_b, 1);
  EXPECT_GE(cell_b->bus().stats().interests_propagated, 2u);
}

// A gateway re-joining a cell whose interests did not change presents the
// mirror it carried; the cell confirms it digest-only instead of re-sending
// the table, and the gateway keeps routing on it.
TEST_F(GatewayFixture, RejoinToUnchangedCellConfirmsInterestTable) {
  gw_in_a->start();
  gw_in_b->start();
  ex.run_for(seconds(3));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());
  int ecg_in_b = 0;
  cell_b->bus().subscribe_local(Filter::for_type("vitals.ecg"),
                                [&](const Event&) { ++ecg_in_b; });
  ex.run_for(seconds(2));

  gw_host->set_up(false);
  ex.run_for(seconds(12));
  EXPECT_FALSE(gw_in_b->joined());
  gw_host->set_up(true);
  ex.run_for(seconds(15));
  ASSERT_TRUE(gw_in_a->joined() && gw_in_b->joined());

  EXPECT_GT(cell_b->bus().stats().tables_elided, 0u);
  ASSERT_NE(gw_in_b->client(), nullptr);
  EXPECT_TRUE(gw_in_b->client()->mirror().synced());
  cell_a->bus().publish_local(Event("vitals.ecg", {{"bpm", 72}}));
  ex.run_for(seconds(3));
  EXPECT_EQ(ecg_in_b, 1);
}

TEST_F(GatewayFixture, DestructionStopsForwarding) {
  // The gateway's subscriptions in cell a and its interest listener on the
  // b-side member both capture it: destroying it must withdraw them, or the
  // next matching delivery would call into freed memory.
  gateway->share(Filter::for_type("x"));
  gw_in_a->start();
  gw_in_b->start();
  int seen_b = 0;
  cell_b->bus().subscribe_local(Filter::for_type("x"),
                                [&](const Event&) { ++seen_b; });
  ex.run_for(seconds(5));
  cell_a->bus().publish_local(Event("x"));
  ex.run_for(seconds(3));
  EXPECT_EQ(seen_b, 1);

  gateway.reset();
  cell_a->bus().publish_local(Event("x"));
  // A fresh interest push reaches the b-side member with no listener left.
  cell_b->bus().subscribe_local(Filter::for_type("y"), [](const Event&) {});
  ex.run_for(seconds(3));
  EXPECT_EQ(seen_b, 1);
}

}  // namespace
}  // namespace amuse
