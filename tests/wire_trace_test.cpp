// Golden wire trace: a seeded simulated ward whose every delivered datagram
// (hand-over time, source, destination, bytes) is folded into one SHA-256
// digest. The digest pins the cell's wire behaviour end to end — which
// frames the channels emit, their bytes, their order and their timing —
// so a refactor of the send path that claims "same wire" is held to it.
// It is the wire counterpart of the golden WAL image (repl_store_test).
//
// The scenario: two sensors publishing bursts of events large enough to
// fragment (so pump rounds carry several frames), two consoles, a loss
// burst on the core↔edge link that forces go-back-N and fast retransmits,
// and a subscription added and withdrawn mid-run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/sha256.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "proxy/forwarding_proxy.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"

namespace amuse {
namespace {

// Recorded when the trace was introduced. Re-record it only in a change
// that intends to alter the wire (frames, bytes, grouping or timing) and
// says so in CHANGES.md; any other change must leave it passing as is.
constexpr const char* kGoldenDigest =
    "9b1e4b96a1d682dff6da631a7622592c25a106193bde9c0bf4ae1f755d69f36f";

const Bytes kPsk = to_bytes("wire-trace-key");

// A transparent Transport decorator that hashes every datagram handed to
// the wrapped endpoint's receive handler.
class TracedTransport final : public Transport {
 public:
  TracedTransport(std::shared_ptr<Transport> inner, Executor& ex,
                  Sha256& digest, std::uint64_t& count)
      : inner_(std::move(inner)), ex_(ex), digest_(digest), count_(count) {}

  [[nodiscard]] ServiceId local_id() const override {
    return inner_->local_id();
  }
  void send(ServiceId dst, BytesView data) override { inner_->send(dst, data); }
  void send_batch(std::span<const Datagram> batch) override {
    inner_->send_batch(batch);
  }
  void broadcast(BytesView data) override { inner_->broadcast(data); }
  [[nodiscard]] std::size_t max_datagram() const override {
    return inner_->max_datagram();
  }
  void set_receive_handler(ReceiveHandler handler) override {
    if (!handler) {
      inner_->set_receive_handler(nullptr);
      return;
    }
    inner_->set_receive_handler(
        [this, h = std::move(handler)](ServiceId src, BytesView data) {
          record(src, data);
          h(src, data);
        });
  }

 private:
  void record(ServiceId src, BytesView data) {
    Writer w;
    w.u64(static_cast<std::uint64_t>(ex_.now().time_since_epoch().count()));
    w.u64(src.raw());
    w.u64(local_id().raw());
    w.u32(static_cast<std::uint32_t>(data.size()));
    digest_.update(std::move(w).take());
    digest_.update(data);
    ++count_;
  }

  std::shared_ptr<Transport> inner_;
  Executor& ex_;
  Sha256& digest_;
  std::uint64_t& count_;
};

std::string hex(const Digest256& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

TEST(WireTrace, SeededWardMatchesGoldenDigest) {
  SimExecutor ex;
  SimNetwork net(ex, /*seed=*/21021);
  net.set_default_link(profiles::usb_ip_link());
  SimHost& core = net.add_host("core", profiles::ideal_host());
  SimHost& edge = net.add_host("edge", profiles::ideal_host());

  Sha256 digest;
  std::uint64_t datagrams = 0;
  auto endpoint = [&](SimHost& host) {
    return std::make_shared<TracedTransport>(net.create_endpoint(host), ex,
                                             digest, datagrams);
  };

  SmcCellConfig cfg;
  cfg.name = "ward";
  cfg.pre_shared_key = kPsk;
  cfg.discovery.beacon_interval = milliseconds(400);
  cfg.discovery.heartbeat_interval = milliseconds(400);
  cfg.discovery.suspect_after = seconds(2);
  cfg.discovery.purge_after = seconds(6);
  cfg.discovery.sweep_interval = milliseconds(200);
  // Deliveries fragment, so the bus's pump rounds carry several frames.
  cfg.bus.channel.max_fragment_payload = 96;
  SelfManagedCell cell(ex, endpoint(core), endpoint(core), cfg);
  cell.start();

  auto member = [&](const std::string& type, const std::string& role) {
    SmcMemberConfig mc;
    mc.agent.cell_name = "ward";
    mc.agent.pre_shared_key = kPsk;
    mc.agent.device_type = type;
    mc.agent.role = role;
    mc.channel.max_fragment_payload = 64;
    return std::make_unique<SmcMember>(ex, endpoint(edge), mc);
  };
  auto hr = member("sensor.vitals", "sensor");
  auto spo2 = member("sensor.vitals", "sensor");
  auto nurse = member("console.nurse", "nurse");
  auto doctor = member("console.doctor", "doctor");
  for (SmcMember* m : {hr.get(), spo2.get(), nurse.get(), doctor.get()}) {
    m->start();
  }
  ex.run_for(seconds(3));
  for (SmcMember* m : {hr.get(), spo2.get(), nurse.get(), doctor.get()}) {
    ASSERT_TRUE(m->joined());
  }

  std::uint64_t nurse_got = 0, doctor_got = 0, doctor_spo2 = 0;
  nurse->subscribe(Filter::for_type_prefix("vitals."),
                   [&](const Event&) { ++nurse_got; });
  doctor->subscribe(Filter::for_type("vitals.heartrate"),
                    [&](const Event&) { ++doctor_got; });
  ex.run_for(milliseconds(200));

  const std::string note(80, 'n');  // fragments at both channel configs
  std::uint64_t published = 0, published_hr = 0;
  std::uint64_t spo2_sub = 0;
  const TimePoint start = ex.now();
  for (int tick = 0; tick < 60; ++tick) {
    for (int i = 0; i < 3; ++i) {
      ++published;
      ++published_hr;
      hr->publish(Event("vitals.heartrate",
                        {{"hr", static_cast<std::int64_t>(60 + tick)},
                         {"patient", "P01"},
                         {"note", note}}));
      ++published;
      spo2->publish(Event("vitals.spo2",
                          {{"spo2", static_cast<std::int64_t>(90 + i)},
                           {"patient", "P01"}}));
    }
    if (tick == 20) {  // a loss burst on the core↔edge link
      LinkModel lossy = profiles::usb_ip_link();
      lossy.loss = 0.6;
      net.update_link(core, edge, lossy);
    }
    if (tick == 26) net.update_link(core, edge, profiles::usb_ip_link());
    if (tick == 35) {
      spo2_sub = doctor->subscribe(Filter::for_type("vitals.spo2"),
                                   [&](const Event&) { ++doctor_spo2; });
    }
    if (tick == 45) doctor->unsubscribe(spo2_sub);
    ex.run_until(start + milliseconds(50) * (tick + 1));
  }
  ex.run_for(seconds(5));

  // Exactly-once delivery survived the loss burst; the trace covers
  // multi-frame rounds, go-back-N and fast retransmits on both sides.
  EXPECT_EQ(nurse_got, published);
  EXPECT_EQ(doctor_got, published_hr);
  EXPECT_GT(doctor_spo2, 0u);
  EXPECT_LT(doctor_spo2, published - published_hr);
  EXPECT_GT(hr->client()->channel_stats().retransmissions, 0u);
  EXPECT_GT(hr->client()->channel_stats().frame_bursts, 0u);
  EXPECT_GT(net.stats().dropped_loss, 0u);
  auto* to_nurse =
      dynamic_cast<ForwardingProxy*>(cell.bus().proxy_for(nurse->id()));
  ASSERT_NE(to_nurse, nullptr);
  EXPECT_GT(to_nurse->channel_stats().frame_bursts, 0u);
  EXPECT_GT(to_nurse->channel_stats().retransmissions, 0u);
  EXPECT_GT(hr->client()->channel_stats().fast_retransmits, 0u);

  const std::string got = hex(digest.finish());
  RecordProperty("datagrams", std::to_string(datagrams));
  EXPECT_EQ(got, kGoldenDigest) << datagrams << " datagrams traced";
}

}  // namespace
}  // namespace amuse
