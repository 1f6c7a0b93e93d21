// Every component that owns a timer, destroyed while its timers are
// pending, must leave nothing behind on the executor: a task that outlives
// its owner either touches freed memory or (behind a liveness guard) runs
// as a no-op. Each case runs on a SimExecutor over a transport that drops
// every datagram, so the only tasks that can exist are the owner's timers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bus/event_bus.hpp"
#include "devices/ecg_stream.hpp"
#include "devices/sensors.hpp"
#include "discovery/discovery_agent.hpp"
#include "discovery/discovery_service.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/monitor.hpp"
#include "smc/standby.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {
namespace {

/// Sends nowhere; the test speaks the other side through inject().
class DropTransport final : public Transport {
 public:
  explicit DropTransport(std::uint16_t port)
      : id_(ServiceId::from_addr_port(0x0A000001u, port)) {}

  [[nodiscard]] ServiceId local_id() const override { return id_; }
  void send(ServiceId, BytesView) override {}
  void broadcast(BytesView) override {}
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  void inject(ServiceId src, const Packet& p) {
    Bytes bytes = p.encode();
    if (handler_) handler_(src, bytes);
  }

 private:
  ServiceId id_;
  ReceiveHandler handler_;
};

const ServiceId kCellDiscovery = ServiceId::from_addr_port(0x0A000002u, 1);
const ServiceId kCellBus = ServiceId::from_addr_port(0x0A000002u, 2);
constexpr const char* kCellName = "ward";

/// Speaks the cell's half of the join handshake to the agent behind `t`.
void join_cell(DropTransport& t) {
  Packet beacon;
  beacon.type = PacketType::kBeacon;
  beacon.src = kCellDiscovery;
  beacon.dst = ServiceId::broadcast();
  Writer b;
  b.str(kCellName);
  b.u48(kCellBus.raw());
  b.u64(1);  // epoch
  beacon.payload = std::move(b).take();
  t.inject(kCellDiscovery, beacon);

  Packet challenge;
  challenge.type = PacketType::kJoinChallenge;
  challenge.src = kCellDiscovery;
  challenge.dst = t.local_id();
  Writer c;
  c.blob16(to_bytes("nonce"));
  challenge.payload = std::move(c).take();
  t.inject(kCellDiscovery, challenge);

  Packet accept;
  accept.type = PacketType::kJoinAccept;
  accept.src = kCellDiscovery;
  accept.dst = t.local_id();
  Writer a;
  a.u64(static_cast<std::uint64_t>(Duration(seconds(1)).count()));
  a.u64(static_cast<std::uint64_t>(Duration(seconds(10)).count()));
  a.u48(kCellBus.raw());
  a.u32(1);  // proxy session
  a.u64(1);  // epoch
  accept.payload = std::move(a).take();
  t.inject(kCellDiscovery, accept);
}

DiscoveryAgentConfig agent_config() {
  DiscoveryAgentConfig c;
  c.cell_name = kCellName;
  c.pre_shared_key = to_bytes("psk");
  return c;
}

/// Builds one owner with its timers armed; destroying the result destroys
/// the owner (and whatever it needs).
using Build = std::function<std::shared_ptr<void>(SimExecutor&)>;

struct TeardownCase {
  std::string name;
  Build build;
};

void PrintTo(const TeardownCase& c, std::ostream* os) { *os << c.name; }

std::vector<TeardownCase> teardown_cases() {
  return {
      {"ReliableChannel",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         ServiceId self = ServiceId::from_addr_port(0x0A000001u, 1);
         ServiceId peer = ServiceId::from_addr_port(0x0A000001u, 2);
         auto ch = std::make_shared<ReliableChannel>(
             ex, self, peer, /*session=*/1, ReliableChannelConfig{},
             [](std::span<const Transport::Datagram>) {}, [](BytesView) {});
         ch->send(to_bytes("unacked"));  // retransmit timer
         Packet data;
         data.type = PacketType::kData;
         data.session = 7;
         data.src = peer;
         data.dst = self;
         data.payload = to_bytes("first");
         ch->on_packet(data);  // delayed-ack timer
         return ch;
       }},
      {"TranslatingProxy",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         auto bus = std::make_shared<EventBus>(
             ex, std::make_shared<DropTransport>(1));
         register_vital_sensor_proxies(bus->factory());
         ServiceId sensor = ServiceId::from_addr_port(0x0A000003u, 1);
         bus->add_member(MemberInfo{sensor, "sensor.heartrate", "sensor"});
         // A command for the device: sent (and dropped), resend armed.
         bus->publish_local(Event(
             "control.threshold",
             {{"member", static_cast<std::int64_t>(sensor.raw())},
              {"bound", "high"},
              {"value", 130.0}}));
         return bus;
       }},
      {"RawDevice",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         auto t = std::make_shared<DropTransport>(1);
         auto body = std::make_shared<PatientBody>(ex, /*seed=*/1);
         auto sensor = std::make_shared<VitalSensor>(
             ex, t, body, VitalKind::kHeartRate,
             sensor_device_config(VitalKind::kHeartRate, kCellName,
                                  to_bytes("psk"), milliseconds(100)));
         sensor->start();
         join_cell(*t);
         ex.run_for(milliseconds(150));  // one reading out: ack timer armed
         return sensor;
       }},
      {"EcgStreamer",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         auto ecg = std::make_shared<EcgStreamer>(
             ex, std::make_shared<DropTransport>(1),
             ServiceId::from_addr_port(0x0A000003u, 1));
         ecg->start();
         return ecg;
       }},
      {"PatientBody",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         return std::make_shared<PatientBody>(ex, /*seed=*/1);
       }},
      {"DiscoveryAgent",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         auto t = std::make_shared<DropTransport>(1);
         auto agent = std::make_shared<DiscoveryAgent>(ex, t, agent_config());
         t->set_receive_handler(
             [a = agent.get()](ServiceId src, BytesView data) {
               if (auto p = Packet::decode(data)) a->handle_packet(src, *p);
             });
         agent->start();
         join_cell(*t);  // heartbeat and loss timers
         return agent;
       }},
      {"DiscoveryService",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         DiscoveryConfig cfg;
         cfg.cell_name = kCellName;
         auto svc = std::make_shared<DiscoveryService>(
             ex, std::make_shared<DropTransport>(1), kCellBus, cfg);
         svc->start();  // beacon and sweep timers
         return svc;
       }},
      {"SelfMonitor",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         struct Owner {
           std::unique_ptr<SelfManagedCell> cell;
           std::unique_ptr<SelfMonitor> monitor;
         };
         auto o = std::make_shared<Owner>();
         o->cell = std::make_unique<SelfManagedCell>(
             ex, std::make_shared<DropTransport>(1),
             std::make_shared<DropTransport>(2));
         o->monitor = std::make_unique<SelfMonitor>(ex, *o->cell);
         o->cell->start();
         o->monitor->start();
         return o;
       }},
      {"StandbyCore",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         auto t = std::make_shared<DropTransport>(1);
         StandbyCoreConfig cfg;
         cfg.agent = agent_config();
         auto standby = std::make_shared<StandbyCore>(
             ex, t, std::make_shared<DropTransport>(2),
             std::make_shared<DropTransport>(3), cfg);
         standby->start();
         join_cell(*t);  // lease check armed on admission
         return standby;
       }},
      {"HaEventBus",
       [](SimExecutor& ex) -> std::shared_ptr<void> {
         EventBusConfig cfg;
         cfg.ha = true;
         auto bus = std::make_shared<EventBus>(
             ex, std::make_shared<DropTransport>(1), cfg);
         ServiceId standby = ServiceId::from_addr_port(0x0A000003u, 1);
         // Snapshot pushed (retransmit armed) and the lease tick armed.
         bus->add_member(
             MemberInfo{standby, "smc.standby", std::string(kStandbyRole)});
         return bus;
       }},
  };
}

class TimerTeardown : public ::testing::TestWithParam<TeardownCase> {};

TEST_P(TimerTeardown, DestroyedOwnerLeavesNoTaskBehind) {
  SimExecutor ex;
  std::shared_ptr<void> owner = GetParam().build(ex);
  ASSERT_GT(ex.pending(), 0u) << "no timer was armed";
  owner.reset();
  // Cancelled timers leave the queue at once: nothing is left pending,
  // not even a task that would turn out to be dead when popped.
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_TRUE(ex.idle());
  EXPECT_EQ(ex.run(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Owners, TimerTeardown, ::testing::ValuesIn(teardown_cases()),
    [](const ::testing::TestParamInfo<TeardownCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace amuse
