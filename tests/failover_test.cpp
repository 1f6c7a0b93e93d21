// Directed HA failover tests (DESIGN.md §13): active core + warm standby
// over the simulated network. Covers the crash → lease expiry → promotion →
// re-home → spool re-delivery pipeline end to end, the split-brain /
// revived-core fencing paths, and the filter-table no-change confirm on a
// promoted core (quenching keeps working across it). The randomized counterpart lives in the torture suite
// (TortureFailover.*); these tests pin each mechanism individually.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bus/repl_store.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "smc/standby.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

const Bytes kPsk = to_bytes("failover-key");
constexpr const char* kCell = "ha-cell";

LinkModel cut_link() {
  LinkModel m = profiles::usb_ip_link();
  m.loss = 1.0;
  return m;
}

struct HaFixture : ::testing::Test {
  HaFixture() : net(ex, 20260808) {
    net.set_default_link(profiles::usb_ip_link());
    core_host = &net.add_host("core", profiles::ideal_host());
    standby_host = &net.add_host("standby", profiles::ideal_host());

    cell = std::make_unique<SelfManagedCell>(ex, net.create_endpoint(*core_host),
                                             net.create_endpoint(*core_host),
                                             cell_config());
    standby = make_standby(*standby_host);
  }

  std::unique_ptr<StandbyCore> make_standby(SimHost& host,
                                            bool require_quorum = true) {
    StandbyCoreConfig sc;
    sc.agent.cell_name = kCell;
    sc.agent.pre_shared_key = kPsk;
    sc.cell = cell_config();
    sc.require_quorum = require_quorum;
    return std::make_unique<StandbyCore>(
        ex, net.create_endpoint(host), net.create_endpoint(host),
        net.create_endpoint(host), sc);
  }

  static SmcCellConfig cell_config(bool quench = false) {
    SmcCellConfig cfg;
    cfg.name = kCell;
    cfg.pre_shared_key = kPsk;
    cfg.bus.ha = true;
    cfg.bus.epoch = 1;
    cfg.bus.quench = quench;
    cfg.discovery.beacon_interval = milliseconds(300);
    cfg.discovery.heartbeat_interval = milliseconds(300);
    cfg.discovery.suspect_after = seconds(2);
    cfg.discovery.purge_after = seconds(30);
    cfg.discovery.sweep_interval = milliseconds(200);
    return cfg;
  }

  std::unique_ptr<SmcMember> make_member(SimHost& host, const char* type,
                                         bool fence = true,
                                         bool quench = false) {
    SmcMemberConfig mc;
    mc.quench = quench;
    mc.agent.cell_name = kCell;
    mc.agent.pre_shared_key = kPsk;
    mc.agent.device_type = type;
    // Re-homing after a failover is fence-driven (the promoted epoch in the
    // rival beacon), not loss-timer-driven; keep the loss timer out of the
    // way so the tests prove the fence alone closes the window.
    mc.agent.cell_lost_after = seconds(60);
    mc.agent.fence_epochs = fence;
    return std::make_unique<SmcMember>(ex, net.create_endpoint(host), mc);
  }

  EventBus& promoted_bus() { return standby->cell()->bus(); }

  /// Rebuilds the core and the standby with bus-side quenching on.
  void use_quench_cell() {
    cell = std::make_unique<SelfManagedCell>(
        ex, net.create_endpoint(*core_host), net.create_endpoint(*core_host),
        cell_config(/*quench=*/true));
    StandbyCoreConfig sc;
    sc.agent.cell_name = kCell;
    sc.agent.pre_shared_key = kPsk;
    sc.cell = cell_config(/*quench=*/true);
    standby = std::make_unique<StandbyCore>(
        ex, net.create_endpoint(*standby_host),
        net.create_endpoint(*standby_host), net.create_endpoint(*standby_host),
        sc);
  }

  SimExecutor ex;
  SimNetwork net;
  SimHost* core_host = nullptr;
  SimHost* standby_host = nullptr;
  std::unique_ptr<SelfManagedCell> cell;
  std::unique_ptr<StandbyCore> standby;
};

// A healthy cell never promotes: the repl stream (updates and bare lease
// renewals) keeps pushing the standby's deadline out indefinitely.
TEST_F(HaFixture, HealthyCoreHoldsTheLease) {
  cell->start();
  standby->start();
  SimHost& h = net.add_host("m", profiles::ideal_host());
  auto member = make_member(h, "sensor");
  member->start();

  ex.run_for(seconds(20));
  EXPECT_FALSE(standby->promoted());
  EXPECT_TRUE(standby->synced());
  EXPECT_GT(standby->stats().updates_applied, 0u);
  EXPECT_EQ(standby->stats().lease_expiries_unsynced, 0u);
  EXPECT_GT(cell->bus().stats().repl_updates, 0u);
}

// Core crashes with routed-but-undelivered traffic in the spool (the
// subscriber was off the air): after promotion and re-home the spool
// re-delivery is the *first* delivery — every event arrives exactly once,
// in publish order, with zero dedup hits.
TEST_F(HaFixture, CrashPromoteRedeliversSpooledTrafficOnce) {
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined());
  ASSERT_TRUE(sub->joined());
  ASSERT_TRUE(standby->synced());

  // Subscriber drops off the air; the burst lands in its proxy queue and
  // the HA spool, then the core dies before anything is delivered.
  sub_host.set_up(false);
  ex.run_for(milliseconds(500));
  for (int n = 0; n < 10; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));  // routed, spooled, replicated
  ASSERT_TRUE(got.empty());
  core_host->set_up(false);

  ex.run_for(seconds(3));  // lease (1.5 s) expires; standby promotes
  ASSERT_TRUE(standby->promoted());
  EXPECT_EQ(promoted_bus().stats().promotions, 1u);
  EXPECT_EQ(promoted_bus().epoch(), 2u);

  sub_host.set_up(true);
  ex.run_for(seconds(5));  // re-home on the epoch-2 beacon, spool replays
  ASSERT_EQ(got.size(), 10u);
  for (int n = 0; n < 10; ++n) EXPECT_EQ(got[n], n);
  EXPECT_EQ(promoted_bus().stats().staleness_redelivered, 10u);
  EXPECT_EQ(sub->stats().ha_duplicates_dropped, 0u);

  // The promoted core is a fully working cell: fresh publishes keep FIFO
  // order behind the re-delivered prefix.
  for (int n = 10; n < 15; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(2));
  ASSERT_EQ(got.size(), 15u);
  for (int n = 0; n < 15; ++n) EXPECT_EQ(got[n], n);
}

// Core crashes after the burst was fully delivered: the promoted core
// dutifully re-delivers its spool, and the member-side (epoch, seq) dedup
// swallows every duplicate — exactly-once across the failover.
TEST_F(HaFixture, CrashPromoteDedupsAlreadyDeliveredTraffic) {
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced());

  for (int n = 0; n < 10; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_EQ(got.size(), 10u);

  core_host->set_up(false);
  ex.run_for(seconds(6));  // promote + both members re-home
  ASSERT_TRUE(standby->promoted());
  ASSERT_TRUE(sub->joined());
  EXPECT_GE(sub->agent().stats().rehomes, 1u);
  EXPECT_GE(pub->agent().stats().rehomes, 1u);

  // The spool was replayed at the sub's re-home and every event filtered.
  EXPECT_EQ(promoted_bus().stats().staleness_redelivered, 10u);
  EXPECT_EQ(sub->stats().ha_duplicates_dropped, 10u);
  ASSERT_EQ(got.size(), 10u);

  for (int n = 10; n < 15; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(2));
  ASSERT_EQ(got.size(), 15u);
  for (int n = 0; n < 15; ++n) EXPECT_EQ(got[n], n);  // FIFO across promotion
}

// Split brain: the old core stays alive but partitioned from the standby,
// which promotes. Members re-home on the higher epoch; when the partition
// heals, the old core hears the rival's epoch-2 beacon and steps down —
// no event is ever delivered twice.
TEST_F(HaFixture, SplitBrainOldCoreStepsDownOnHeal) {
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced());

  for (int n = 0; n < 5; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_EQ(got.size(), 5u);

  // Partition core ↔ standby only; members can still reach both sides.
  net.update_link(*core_host, *standby_host, cut_link());
  ex.run_for(seconds(3));
  ASSERT_TRUE(standby->promoted());
  EXPECT_FALSE(cell->bus().deposed());  // can't hear the rival yet

  // Members already fenced over to epoch 2; traffic flows on the new core.
  ex.run_for(seconds(2));
  ASSERT_TRUE(pub->joined() && sub->joined());
  for (int n = 5; n < 10; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));

  // Heal: the deposed-to-be core hears the rival beacon and fences itself.
  net.update_link(*core_host, *standby_host, profiles::usb_ip_link());
  ex.run_for(seconds(2));
  EXPECT_TRUE(cell->bus().deposed());
  EXPECT_GE(cell->discovery().stats().rival_step_downs, 1u);
  EXPECT_TRUE(cell->discovery().deposed());

  // Exactly once, in order, across the whole incident.
  ASSERT_EQ(got.size(), 10u);
  for (int n = 0; n < 10; ++n) EXPECT_EQ(got[n], n);
}

// A crashed core that comes back after the failover is fenced everywhere:
// members ignore its stale epoch-1 beacons, and once it can hear the
// promoted core it steps down.
TEST_F(HaFixture, RevivedCoreIsFencedAndDeposed) {
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  pub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined());
  ASSERT_TRUE(standby->synced());

  core_host->set_up(false);
  ex.run_for(seconds(5));
  ASSERT_TRUE(standby->promoted());
  ASSERT_TRUE(pub->joined());
  ASSERT_EQ(pub->agent().max_epoch(), 2u);

  // Revive the old core behind a one-way cut (it cannot hear the promoted
  // core's beacons yet, so it keeps beaconing epoch 1): members must
  // ignore every stale beacon and stay homed on epoch 2.
  net.update_link_oneway(*standby_host, *core_host, cut_link());
  core_host->set_up(true);
  std::uint64_t rehomes_before = pub->agent().stats().rehomes;
  ex.run_for(seconds(2));
  EXPECT_GE(pub->agent().stats().stale_beacons_ignored, 1u);
  EXPECT_EQ(pub->agent().stats().rehomes, rehomes_before);
  EXPECT_TRUE(pub->joined());
  EXPECT_TRUE(promoted_bus().has_member(pub->id()));

  // Once the cut heals the revived core hears epoch 2 and steps down.
  net.update_link_oneway(*standby_host, *core_host, profiles::usb_ip_link());
  ex.run_for(seconds(2));
  EXPECT_TRUE(cell->bus().deposed());
  EXPECT_GE(cell->discovery().stats().rival_step_downs, 1u);
}

// The flag the sensitivity proof reverts: with epoch fencing off a joined
// member never notices the promotion and strands on the dead core. The
// fenced member on the same schedule re-homes promptly.
TEST_F(HaFixture, FencingDisabledStrandsMemberOnDeadCore) {
  cell->start();
  standby->start();
  SimHost& fenced_host = net.add_host("fenced", profiles::ideal_host());
  SimHost& legacy_host = net.add_host("legacy", profiles::ideal_host());
  auto fenced = make_member(fenced_host, "sensor", /*fence=*/true);
  auto legacy = make_member(legacy_host, "sensor", /*fence=*/false);
  fenced->start();
  legacy->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(fenced->joined() && legacy->joined());
  ASSERT_TRUE(standby->synced());

  core_host->set_up(false);
  ex.run_for(seconds(6));
  ASSERT_TRUE(standby->promoted());

  EXPECT_GE(fenced->agent().stats().rehomes, 1u);
  EXPECT_TRUE(promoted_bus().has_member(fenced->id()));

  EXPECT_EQ(legacy->agent().stats().rehomes, 0u);
  EXPECT_FALSE(promoted_bus().has_member(legacy->id()));
}

// The promoted core rebuilds every filter-table view from the replica and
// compares the canonical digest each re-homing member presented in its
// JOIN_RESP — an unchanged table is confirmed digest-only, never re-pushed.
TEST_F(HaFixture, UnchangedQuenchTableSkippedOnPromotion) {
  use_quench_cell();
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  sub->subscribe(Filter::for_type("seq"), [](const Event&) {});
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced());
  ASSERT_TRUE(pub->client()->mirror().synced());

  core_host->set_up(false);
  ex.run_for(seconds(6));
  ASSERT_TRUE(standby->promoted());
  ASSERT_TRUE(pub->joined() && sub->joined());

  // The subscription set rode over in the replica, so the rebuilt view is
  // identical and every re-homing member's held digest matches.
  EXPECT_GT(promoted_bus().stats().tables_elided, 0u);
  EXPECT_TRUE(pub->client()->mirror().synced());
}

// The confirm must leave the re-homed publisher *holding* its table: a
// quench-enabled publisher that quenched an unwanted event before the
// failover quenches it after a no-change promotion too.
TEST_F(HaFixture, QuenchSurvivesNoChangePromotion) {
  use_quench_cell();
  cell->start();
  standby->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor", /*fence=*/true, /*quench=*/true);
  auto sub = make_member(sub_host, "console");
  int got = 0;
  sub->subscribe(Filter::for_type("seq"), [&](const Event&) { ++got; });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced());
  EXPECT_FALSE(pub->publish(Event("unwanted")));
  EXPECT_EQ(pub->client()->stats().quenched, 1u);

  core_host->set_up(false);
  ex.run_for(seconds(6));
  ASSERT_TRUE(standby->promoted());
  ASSERT_TRUE(pub->joined() && sub->joined());
  EXPECT_GT(promoted_bus().stats().tables_elided, 0u);

  EXPECT_FALSE(pub->publish(Event("unwanted")));
  EXPECT_EQ(pub->client()->stats().quenched, 1u);
  EXPECT_EQ(pub->client()->stats().published, 0u);
  // Wanted traffic still flows.
  EXPECT_TRUE(pub->publish(Event("seq")));
  ex.run_for(seconds(1));
  EXPECT_EQ(got, 1);
}

// The same holds for a plain rejoin to an unchanged core: the core confirms
// the carried table and the publisher keeps quenching.
TEST_F(HaFixture, QuenchSurvivesPlainRejoin) {
  use_quench_cell();
  cell->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor", /*fence=*/true, /*quench=*/true);
  auto sub = make_member(sub_host, "console");
  sub->subscribe(Filter::for_type("seq"), [](const Event&) {});
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  EXPECT_FALSE(pub->publish(Event("unwanted")));

  pub->leave();
  ex.run_for(seconds(1));
  ASSERT_FALSE(pub->joined());
  pub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined());
  EXPECT_GT(cell->bus().stats().tables_elided, 0u);

  EXPECT_FALSE(pub->publish(Event("unwanted")));
  EXPECT_EQ(pub->client()->stats().quenched, 1u);
  EXPECT_EQ(pub->client()->stats().published, 0u);
}

// ---- Multi-standby quorum arbitration (DESIGN.md §13.5).

struct TwoStandbyFixture : HaFixture {
  TwoStandbyFixture() {
    standby2_host = &net.add_host("standby2", profiles::ideal_host());
    standby2 = make_standby(*standby2_host);
  }

  StandbyCore* the_winner() {
    if (standby->promoted()) return standby.get();
    if (standby2->promoted()) return standby2.get();
    return nullptr;
  }
  StandbyCore* the_loser() {
    return the_winner() == standby.get() ? standby2.get() : standby.get();
  }
  SimHost* winner_host() {
    return the_winner() == standby.get() ? standby_host : standby2_host;
  }

  SimHost* standby2_host = nullptr;
  std::unique_ptr<StandbyCore> standby2;
};

// Regression for the quorum arbitration itself: with two standbys racing
// for a dead core's cell, exactly ONE wins a claim round (the peer's vote
// makes the 2-of-2 majority) and promotes at epoch 2. The loser stands
// down, re-homes to the winner's beacon, and re-mirrors at the new epoch —
// the cell is re-armed without operator action. Before the quorum
// arbitration both standbys promoted; see QuorumRevertedBothPromote.
TEST_F(TwoStandbyFixture, ExactlyOneStandbyPromotesUnderQuorum) {
  cell->start();
  standby->start();
  standby2->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced() && standby2->synced());
  // The roster replicated to both mirrors names both standbys — the quorum
  // denominator each will arbitrate over.
  EXPECT_EQ(standby->mirror().state().standbys.size(), 2u);
  EXPECT_EQ(standby2->mirror().state().standbys.size(), 2u);

  for (int n = 0; n < 5; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_EQ(got.size(), 5u);

  core_host->set_up(false);
  ex.run_for(seconds(6));

  // Exactly one promotion, at epoch 2, granted by the peer's vote.
  ASSERT_NE(the_winner(), nullptr);
  StandbyCore* winner = the_winner();
  StandbyCore* loser = the_loser();
  EXPECT_NE(winner, loser);
  EXPECT_FALSE(loser->promoted());
  EXPECT_EQ(winner->cell()->bus().epoch(), 2u);
  EXPECT_EQ(winner->cell()->bus().stats().promotions, 1u);
  EXPECT_GE(winner->stats().promotion_claims, 1u);
  EXPECT_GE(loser->stats().promotion_votes, 1u);

  // The loser re-homed to the winner and re-mirrors at the new epoch: the
  // cell is armed for the NEXT failover, not just surviving this one.
  EXPECT_TRUE(loser->synced());
  EXPECT_EQ(loser->agent().bus_id(), winner->cell()->bus().bus_id());
  EXPECT_EQ(loser->mirror().epoch(), 2u);
  EXPECT_EQ(loser->mirror().state().standbys.size(), 1u);

  // Exactly-once FIFO across the promotion.
  ASSERT_TRUE(pub->joined() && sub->joined());
  for (int n = 5; n < 10; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(2));
  ASSERT_EQ(got.size(), 10u);
  for (int n = 0; n < 10; ++n) EXPECT_EQ(got[n], n);
}

// The flag the double-promotion sensitivity proof reverts: without the
// quorum, both standbys notice the lapse and promote unilaterally at the
// SAME epoch — a split cell. This is the pre-arbitration behaviour the
// torture oracle's "double-promotion" check exists to catch
// (TortureFailover.QuorumRevertIsCaught drives the full proof).
TEST_F(TwoStandbyFixture, QuorumRevertedBothPromote) {
  standby = make_standby(*standby_host, /*require_quorum=*/false);
  standby2 = make_standby(*standby2_host, /*require_quorum=*/false);
  cell->start();
  standby->start();
  standby2->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(standby->synced() && standby2->synced());

  core_host->set_up(false);
  ex.run_for(seconds(6));
  EXPECT_TRUE(standby->promoted());
  EXPECT_TRUE(standby2->promoted());
  EXPECT_EQ(standby->cell()->bus().epoch(), 2u);
  EXPECT_EQ(standby2->cell()->bus().epoch(), 2u);
  EXPECT_EQ(standby->stats().promotion_claims +
                standby2->stats().promotion_claims,
            0u);  // nobody even asked
}

// Standby chains: after the first failover the losing standby re-armed the
// promoted cell, so a SECOND core crash promotes it too — epoch 3, roster
// of one, majority of one is the implicit self-vote. Traffic stays
// exactly-once FIFO across both promotions.
TEST_F(TwoStandbyFixture, SequentialCrashesPromoteDownTheChain) {
  cell->start();
  standby->start();
  standby2->start();
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  ASSERT_TRUE(standby->synced() && standby2->synced());

  for (int n = 0; n < 5; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_EQ(got.size(), 5u);

  // First crash: one standby wins the arbitration, the other re-arms it.
  core_host->set_up(false);
  ex.run_for(seconds(6));
  ASSERT_NE(the_winner(), nullptr);
  StandbyCore* survivor = the_loser();
  ASSERT_FALSE(survivor->promoted());
  ASSERT_TRUE(survivor->synced());
  ASSERT_EQ(survivor->mirror().epoch(), 2u);

  for (int n = 5; n < 10; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_EQ(got.size(), 10u);

  // Second crash: the epoch-2 winner dies too. The survivor is the whole
  // roster now, so the implicit self-vote is the majority.
  winner_host()->set_up(false);
  ex.run_for(seconds(6));
  ASSERT_TRUE(survivor->promoted());
  EXPECT_EQ(survivor->cell()->bus().epoch(), 3u);
  EXPECT_EQ(survivor->cell()->bus().stats().promotions, 1u);
  ASSERT_TRUE(pub->joined() && sub->joined());
  EXPECT_EQ(pub->agent().max_epoch(), 3u);

  for (int n = 10; n < 15; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(2));
  ASSERT_EQ(got.size(), 15u);
  for (int n = 0; n < 15; ++n) EXPECT_EQ(got[n], n);
}

// ---- Disk-durable ReplState (DESIGN.md §13.6).

// Full-cell kill-and-restart: the core journals every ReplLog mutation
// through a FileReplStore, dies with routed-but-undelivered traffic in the
// spool, and a fresh process recovers membership + durable subscriptions +
// spool from the journal alone and restarts the cell at epoch + 1. Members
// fence over exactly as they would to a promoted standby, and the spooled
// burst is re-delivered exactly once, in order.
TEST_F(HaFixture, WalRestartRecoversMembershipSubscriptionsAndSpool) {
  const std::string path = ::testing::TempDir() + "amuse-ha-wal.bin";
  std::remove(path.c_str());

  SmcCellConfig cfg = cell_config();
  cfg.bus.repl_store = std::make_shared<FileReplStore>(path);
  cell = std::make_unique<SelfManagedCell>(ex, net.create_endpoint(*core_host),
                                           net.create_endpoint(*core_host),
                                           cfg);
  cell->start();  // no standby: durability must not depend on one
  SimHost& pub_host = net.add_host("pub", profiles::ideal_host());
  SimHost& sub_host = net.add_host("sub", profiles::ideal_host());
  auto pub = make_member(pub_host, "sensor");
  auto sub = make_member(sub_host, "console");
  std::vector<long long> got;
  sub->subscribe(Filter::for_type("seq"),
                 [&](const Event& e) { got.push_back(e.get_int("n", -1)); });
  pub->start();
  sub->start();
  ex.run_for(seconds(4));
  ASSERT_TRUE(pub->joined() && sub->joined());
  const ServiceId pub_id = pub->id();
  const ServiceId sub_id = sub->id();

  // Subscriber off the air; the burst is routed, spooled and journalled
  // but never delivered — then the core dies without warning.
  sub_host.set_up(false);
  ex.run_for(milliseconds(500));
  for (int n = 0; n < 8; ++n) {
    pub->publish(Event("seq", {{"n", n}}));
    ex.run_for(milliseconds(30));
  }
  ex.run_for(seconds(1));
  ASSERT_TRUE(got.empty());
  core_host->set_up(false);
  cell.reset();  // the process is gone; only the journal file remains

  // A fresh store recovers the durable state from the journal.
  auto store = std::make_shared<FileReplStore>(path);
  ReplStore::Recovery rec = store->recover();
  ASSERT_TRUE(rec.state.has_value());
  EXPECT_EQ(store->stats().recoveries, 1u);
  EXPECT_EQ(rec.state->epoch, 1u);
  ASSERT_EQ(rec.state->members.count(pub_id.raw()), 1u);
  ASSERT_EQ(rec.state->members.count(sub_id.raw()), 1u);
  EXPECT_EQ(rec.state->members.at(sub_id.raw()).subs.size(), 1u);
  ASSERT_EQ(rec.state->spool.size(), 8u);

  // Restart the cell from the recovered replica at epoch + 1 — the same
  // restore path a promoted standby takes — journalling into the same
  // store so the next crash is covered too.
  SmcCellConfig restarted = cell_config();
  restarted.bus.epoch = rec.state->epoch + 1;
  restarted.bus.restore =
      std::make_shared<const ReplState>(std::move(*rec.state));
  restarted.bus.repl_store = store;
  core_host->set_up(true);
  cell = std::make_unique<SelfManagedCell>(ex, net.create_endpoint(*core_host),
                                           net.create_endpoint(*core_host),
                                           restarted);
  cell->start();
  sub_host.set_up(true);
  ex.run_for(seconds(6));

  // Members fenced over to the epoch-2 beacon and the spool replayed: the
  // crashed burst arrives exactly once, in publish order.
  ASSERT_TRUE(pub->joined() && sub->joined());
  EXPECT_EQ(pub->agent().max_epoch(), 2u);
  EXPECT_EQ(cell->bus().epoch(), 2u);
  EXPECT_EQ(cell->bus().stats().promotions, 1u);
  ASSERT_EQ(got.size(), 8u);
  for (int n = 0; n < 8; ++n) EXPECT_EQ(got[n], n);
  EXPECT_EQ(cell->bus().stats().staleness_redelivered, 8u);
  EXPECT_EQ(sub->stats().ha_duplicates_dropped, 0u);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace amuse
