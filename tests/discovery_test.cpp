// Discovery tests: authenticated admission, heartbeats, transient-disconnect
// masking (suspect), purge timeouts, graceful leave, and re-join.
#include <gtest/gtest.h>

#include "discovery/discovery_agent.hpp"
#include "discovery/discovery_service.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

const Bytes kPsk = to_bytes("cell-secret");

struct DiscoveryFixture : ::testing::Test {
  DiscoveryFixture() : net(ex, 42) {
    net.set_default_link(profiles::usb_ip_link());
    core = &net.add_host("core", profiles::ideal_host());
    dev = &net.add_host("device", profiles::ideal_host());

    DiscoveryConfig cfg;
    cfg.cell_name = "ward7";
    cfg.pre_shared_key = kPsk;
    cfg.beacon_interval = milliseconds(500);
    cfg.heartbeat_interval = milliseconds(500);
    cfg.suspect_after = seconds(2);
    cfg.purge_after = seconds(5);
    cfg.sweep_interval = milliseconds(250);
    service = std::make_unique<DiscoveryService>(
        ex, net.create_endpoint(*core), /*bus_id=*/ServiceId(0xB05), cfg);
    service->set_on_new_member(
        [this](const MemberInfo& m) { joined.push_back(m); });
    service->set_on_purge_member(
        [this](ServiceId id) { purged.push_back(id); });
    service->set_on_suspect(
        [this](const MemberInfo& m) { suspects.push_back(m.id); });
    service->set_on_recovered(
        [this](const MemberInfo& m) { recovered.push_back(m.id); });
    service->set_publisher([this](Event e) { events.push_back(std::move(e)); });
  }

  std::unique_ptr<DiscoveryAgent> make_agent(const std::string& type,
                                             const Bytes& psk = kPsk,
                                             const std::string& cell =
                                                 "ward7") {
    DiscoveryAgentConfig cfg;
    cfg.cell_name = cell;
    cfg.pre_shared_key = psk;
    cfg.device_type = type;
    cfg.role = "sensor";
    cfg.cell_lost_after = seconds(3);
    auto endpoint = net.create_endpoint(*dev);
    auto agent = std::make_unique<DiscoveryAgent>(ex, endpoint, cfg);
    endpoint->set_receive_handler(
        [a = agent.get()](ServiceId src, BytesView data) {
          if (auto p = Packet::decode(data)) a->handle_packet(src, *p);
        });
    return agent;
  }

  SimExecutor ex;
  SimNetwork net;
  SimHost* core = nullptr;
  SimHost* dev = nullptr;
  std::unique_ptr<DiscoveryService> service;
  std::vector<MemberInfo> joined;
  std::vector<ServiceId> purged;
  std::vector<ServiceId> suspects;
  std::vector<ServiceId> recovered;
  std::vector<Event> events;
};

TEST_F(DiscoveryFixture, DeviceJoinsViaBeaconAndHandshake) {
  auto agent = make_agent("sensor.heartrate");
  bool cb_joined = false;
  agent->set_on_joined([&](ServiceId bus, std::uint32_t session) {
    cb_joined = true;
    EXPECT_EQ(bus, ServiceId(0xB05));
    EXPECT_NE(session, 0u);
  });
  service->start();
  agent->start();
  ex.run_for(seconds(3));

  EXPECT_TRUE(agent->joined());
  EXPECT_TRUE(cb_joined);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].device_type, "sensor.heartrate");
  EXPECT_EQ(joined[0].id, agent->id());
  EXPECT_EQ(service->membership().size(), 1u);

  // A "New Member" event was published.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].type(), smc_events::kNewMember);
  EXPECT_EQ(events[0].get_string("device_type"), "sensor.heartrate");
}

TEST_F(DiscoveryFixture, WrongKeyIsRejected) {
  auto agent = make_agent("sensor.rogue", to_bytes("wrong-key"));
  service->start();
  agent->start();
  ex.run_for(seconds(5));
  EXPECT_FALSE(agent->joined());
  EXPECT_GE(agent->stats().rejections, 1u);
  EXPECT_EQ(service->membership().size(), 0u);
  EXPECT_GE(service->stats().joins_rejected, 1u);
  EXPECT_TRUE(joined.empty());
}

TEST_F(DiscoveryFixture, ForeignCellBeaconsIgnored) {
  auto agent = make_agent("sensor.x", kPsk, "other-cell");
  service->start();
  agent->start();
  ex.run_for(seconds(3));
  EXPECT_FALSE(agent->joined());
  EXPECT_EQ(agent->stats().beacons_heard, 0u);
}

TEST_F(DiscoveryFixture, HeartbeatsKeepMembershipAlive) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(20));
  EXPECT_TRUE(agent->joined());
  EXPECT_EQ(service->membership().size(), 1u);
  EXPECT_TRUE(purged.empty());
  EXPECT_TRUE(suspects.empty());
  EXPECT_GT(agent->stats().heartbeats_sent, 10u);
}

TEST_F(DiscoveryFixture, TransientDisconnectIsMaskedNotPurged) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());

  // "a nurse leaves the room for a short period of time before returning":
  // 3 s of silence — beyond suspect_after (2 s), below purge_after (5 s).
  dev->set_up(false);
  ex.run_for(seconds(3));
  dev->set_up(true);
  ex.run_for(seconds(3));

  EXPECT_EQ(suspects.size(), 1u);
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(purged.empty());
  EXPECT_EQ(service->membership().size(), 1u);
  // Suspect + recovered events were published.
  int suspect_events = 0;
  int recover_events = 0;
  for (const Event& e : events) {
    if (e.type() == smc_events::kSuspectMember) ++suspect_events;
    if (e.type() == smc_events::kRecoveredMember) ++recover_events;
  }
  EXPECT_EQ(suspect_events, 1);
  EXPECT_EQ(recover_events, 1);
}

TEST_F(DiscoveryFixture, LongSilenceLaunchesPurgeMemberEvent) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());
  ServiceId id = agent->id();

  dev->set_up(false);
  ex.run_for(seconds(8));  // beyond purge_after (5 s)

  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0], id);
  EXPECT_EQ(service->membership().size(), 0u);
  bool saw_purge_event = false;
  for (const Event& e : events) {
    if (e.type() == smc_events::kPurgeMember) {
      saw_purge_event = true;
      EXPECT_EQ(e.get_string("reason"), "timeout");
    }
  }
  EXPECT_TRUE(saw_purge_event);
}

TEST_F(DiscoveryFixture, DeviceRejoinsAfterPurge) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());

  dev->set_up(false);
  ex.run_for(seconds(8));
  ASSERT_EQ(purged.size(), 1u);

  dev->set_up(true);
  ex.run_for(seconds(6));  // agent notices loss, searches, re-joins

  EXPECT_TRUE(agent->joined());
  EXPECT_GE(agent->stats().cell_losses, 1u);
  EXPECT_GE(agent->stats().joins, 2u);
  EXPECT_EQ(service->membership().size(), 1u);
  EXPECT_GE(joined.size(), 2u);
}

TEST_F(DiscoveryFixture, GracefulLeavePurgesImmediately) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());
  agent->leave();
  ex.run_for(seconds(1));
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(service->stats().leaves, 1u);
  EXPECT_FALSE(agent->joined());
}

TEST_F(DiscoveryFixture, AdministrativePurgeWorks) {
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());
  service->purge(agent->id(), "policy decision");
  ASSERT_EQ(purged.size(), 1u);
  bool found = false;
  for (const Event& e : events) {
    if (e.type() == smc_events::kPurgeMember &&
        e.get_string("reason") == "policy decision") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DiscoveryFixture, EvictionNoticeTriggersPromptRejoin) {
  // A member purged while it still believes it is joined (e.g. its silence
  // exceeded purge_after during an outage it never noticed) must not stay
  // deaf: the service answers its next heartbeat with an eviction notice
  // and it re-joins on the following beacon.
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(2));
  ASSERT_TRUE(agent->joined());

  service->purge(agent->id(), "administrative");
  ASSERT_FALSE(service->membership().contains(agent->id()));
  // The agent keeps heartbeating; within a heartbeat + beacon interval it
  // must be evicted and re-admitted.
  ex.run_for(seconds(4));
  EXPECT_GE(service->stats().evictions_notified, 1u);
  EXPECT_TRUE(agent->joined());
  EXPECT_GE(agent->stats().joins, 2u);
  EXPECT_TRUE(service->membership().contains(agent->id()));
}

TEST_F(DiscoveryFixture, MultipleDevicesJoinIndependently) {
  auto a1 = make_agent("sensor.heartrate");
  auto a2 = make_agent("sensor.spo2");
  auto a3 = make_agent("console.nurse");
  service->start();
  a1->start();
  a2->start();
  a3->start();
  ex.run_for(seconds(4));
  EXPECT_TRUE(a1->joined());
  EXPECT_TRUE(a2->joined());
  EXPECT_TRUE(a3->joined());
  EXPECT_EQ(service->membership().size(), 3u);
  EXPECT_EQ(joined.size(), 3u);
}

TEST_F(DiscoveryFixture, HandshakeSurvivesPacketLoss) {
  net.set_default_link(profiles::lossy_link(0.3));
  auto agent = make_agent("sensor.x");
  service->start();
  agent->start();
  ex.run_for(seconds(30));
  EXPECT_TRUE(agent->joined());
}

TEST_F(DiscoveryFixture, AdmissionMacBindsIdentityAndType) {
  Bytes nonce = to_bytes("0123456789abcdef");
  const HmacSha256 psk(kPsk);
  Digest256 base = admission_mac(psk, nonce, ServiceId(1), "sensor.a");
  EXPECT_FALSE(digest_equal(
      base, admission_mac(psk, nonce, ServiceId(2), "sensor.a")));
  EXPECT_FALSE(digest_equal(
      base, admission_mac(psk, nonce, ServiceId(1), "sensor.b")));
  EXPECT_FALSE(digest_equal(
      base, admission_mac(HmacSha256(to_bytes("other")), nonce, ServiceId(1),
                          "sensor.a")));
  EXPECT_TRUE(digest_equal(
      base, admission_mac(psk, nonce, ServiceId(1), "sensor.a")));
  // The MAC covers nonce ‖ id (48-bit big-endian) ‖ type.
  Writer w;
  w.raw(nonce);
  w.u48(1);
  w.raw(to_bytes("sensor.a"));
  EXPECT_TRUE(digest_equal(base, hmac_sha256(kPsk, w.bytes())));
}

TEST(Membership, SweepReportsTransitionsWithoutMutating) {
  Membership m;
  MemberInfo info{ServiceId(1), "t", "r"};
  m.admit(info, TimePoint(seconds(0)));

  auto sweep1 = m.sweep(TimePoint(seconds(1)), seconds(2), seconds(5));
  EXPECT_TRUE(sweep1.newly_suspect.empty());
  EXPECT_TRUE(sweep1.to_purge.empty());

  auto sweep2 = m.sweep(TimePoint(seconds(3)), seconds(2), seconds(5));
  ASSERT_EQ(sweep2.newly_suspect.size(), 1u);
  m.mark_suspect(ServiceId(1));
  // Already suspect: not re-reported.
  auto sweep3 = m.sweep(TimePoint(seconds(4)), seconds(2), seconds(5));
  EXPECT_TRUE(sweep3.newly_suspect.empty());

  auto sweep4 = m.sweep(TimePoint(seconds(6)), seconds(2), seconds(5));
  ASSERT_EQ(sweep4.to_purge.size(), 1u);

  // touch() recovers a suspect.
  EXPECT_TRUE(m.touch(ServiceId(1), TimePoint(seconds(6))));
  EXPECT_FALSE(m.touch(ServiceId(1), TimePoint(seconds(7))));
  auto sweep5 = m.sweep(TimePoint(seconds(8)), seconds(2), seconds(5));
  EXPECT_TRUE(sweep5.to_purge.empty());
}

// Boundary semantics: both thresholds are inclusive. Silence exactly equal
// to suspect_after reports the member suspect; exactly equal to purge_after
// purges (and wins over the suspect report — one member never appears in
// both lists).
TEST(Membership, SweepThresholdsAreInclusive) {
  Membership m;
  m.admit(MemberInfo{ServiceId(1), "t", "r"}, TimePoint(seconds(0)));

  // One tick short of suspect_after: nothing reported.
  auto before = m.sweep(TimePoint(seconds(2) - Duration(1)), seconds(2),
                        seconds(5));
  EXPECT_TRUE(before.newly_suspect.empty());
  EXPECT_TRUE(before.to_purge.empty());

  // silence == suspect_after exactly: suspect, not purged.
  auto at_suspect = m.sweep(TimePoint(seconds(2)), seconds(2), seconds(5));
  ASSERT_EQ(at_suspect.newly_suspect.size(), 1u);
  EXPECT_EQ(at_suspect.newly_suspect[0].id, ServiceId(1));
  EXPECT_TRUE(at_suspect.to_purge.empty());

  // One tick short of purge_after: still only suspect-eligible.
  auto before_purge = m.sweep(TimePoint(seconds(5) - Duration(1)), seconds(2),
                              seconds(5));
  EXPECT_TRUE(before_purge.to_purge.empty());

  // silence == purge_after exactly: purged, and not also re-reported
  // suspect.
  auto at_purge = m.sweep(TimePoint(seconds(5)), seconds(2), seconds(5));
  ASSERT_EQ(at_purge.to_purge.size(), 1u);
  EXPECT_EQ(at_purge.to_purge[0].id, ServiceId(1));
  EXPECT_TRUE(at_purge.newly_suspect.empty());
}

// A member may cycle suspect → recovered → suspect indefinitely: each
// recovery resets the silence clock, and each fresh lapse is re-reported as
// newly suspect (the sweep keys off state, not history).
TEST(Membership, SuspectRecoverSuspectCycles) {
  Membership m;
  m.admit(MemberInfo{ServiceId(1), "t", "r"}, TimePoint(seconds(0)));

  for (int cycle = 0; cycle < 3; ++cycle) {
    TimePoint base(seconds(10 * cycle));
    auto lapse = m.sweep(base + seconds(2), seconds(2), seconds(5));
    ASSERT_EQ(lapse.newly_suspect.size(), 1u) << "cycle " << cycle;
    m.mark_suspect(ServiceId(1));
    ASSERT_NE(m.find(ServiceId(1)), nullptr);
    EXPECT_EQ(m.find(ServiceId(1))->state, MemberState::kSuspect);

    // Heartbeat: recovery flips suspect back to active exactly once.
    EXPECT_TRUE(m.touch(ServiceId(1), base + seconds(3)));
    EXPECT_FALSE(m.touch(ServiceId(1), base + seconds(3)));
    EXPECT_EQ(m.find(ServiceId(1))->state, MemberState::kActive);

    // Recovery reset the clock: silence measured from the touch, so the
    // member is clean again until the next full suspect_after elapses.
    auto clean = m.sweep(base + seconds(4), seconds(2), seconds(5));
    EXPECT_TRUE(clean.newly_suspect.empty()) << "cycle " << cycle;
    m.touch(ServiceId(1), base + seconds(8));  // line up the next cycle
  }
}

}  // namespace
}  // namespace amuse
