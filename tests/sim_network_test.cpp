// Tests for the simulated network: link latency/jitter/loss/bandwidth, host
// CPU charging, broadcast domains and partition control.
#include "net/sim_network.hpp"

#include <gtest/gtest.h>

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

struct NetFixture : ::testing::Test {
  SimExecutor ex;
  SimNetwork net{ex, /*seed=*/1234};
};

TEST_F(NetFixture, DeliversUnicastDatagram) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  net.set_default_link(profiles::perfect_link());
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);

  Bytes received;
  ServiceId from;
  tb->set_receive_handler([&](ServiceId src, BytesView data) {
    from = src;
    received = Bytes(data.begin(), data.end());
  });
  ta->send(tb->local_id(), to_bytes("ping"));
  ex.run();
  EXPECT_EQ(to_string(received), "ping");
  EXPECT_EQ(from, ta->local_id());
  EXPECT_EQ(net.stats().datagrams_delivered, 1u);
}

TEST_F(NetFixture, ServiceIdsFollowAddrPortRule) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  auto t1 = net.create_endpoint(a);
  auto t2 = net.create_endpoint(a);
  EXPECT_EQ(t1->local_id().addr(), a.addr());
  EXPECT_EQ(t2->local_id().addr(), a.addr());
  EXPECT_NE(t1->local_id().port(), t2->local_id().port());
}

TEST_F(NetFixture, LatencyWithinConfiguredBounds) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link;
  link.latency_min = milliseconds(2);
  link.latency_spread = milliseconds(3);
  link.bandwidth_bps = 0;
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);

  std::vector<Duration> arrivals;
  tb->set_receive_handler([&](ServiceId, BytesView) {
    arrivals.push_back(ex.now().time_since_epoch());
  });
  for (int i = 0; i < 200; ++i) {
    ex.schedule_at(TimePoint(seconds(i)), [&, i] {
      ta->send(tb->local_id(), to_bytes("x"));
    });
  }
  ex.run();
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Duration latency = arrivals[i] - seconds(static_cast<int>(i));
    EXPECT_GE(latency, milliseconds(2));
    EXPECT_LT(latency, milliseconds(5) + microseconds(10));
  }
}

TEST_F(NetFixture, PaperLinkLatencyProfileMatchesReportedStats) {
  // §V: "latency on the link is 1.5ms on average (0.6ms min, 2.3ms max)".
  SimHost& a = net.add_host("pda", profiles::ideal_host());
  SimHost& b = net.add_host("laptop", profiles::ideal_host());
  net.set_default_link(profiles::usb_ip_link());
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);

  std::vector<double> latencies_ms;
  TimePoint sent;
  tb->set_receive_handler([&](ServiceId, BytesView) {
    latencies_ms.push_back(to_millis(ex.now() - sent));
  });
  for (int i = 0; i < 2000; ++i) {
    ex.schedule_at(TimePoint(seconds(i)), [&, i] {
      sent = TimePoint(seconds(i));
      ta->send(tb->local_id(), to_bytes("p"));
    });
  }
  ex.run();
  ASSERT_EQ(latencies_ms.size(), 2000u);
  double sum = 0;
  double mn = 1e9;
  double mx = 0;
  for (double v : latencies_ms) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_NEAR(sum / latencies_ms.size(), 1.45, 0.1);
  EXPECT_GE(mn, 0.6);
  EXPECT_LE(mx, 2.3 + 0.01);
}

TEST_F(NetFixture, LossRateIsRespected) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  net.set_default_link(profiles::lossy_link(0.3));
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int received = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++received; });
  constexpr int kSent = 5000;
  for (int i = 0; i < kSent; ++i) {
    ex.schedule_at(TimePoint(milliseconds(i * 10)), [&] {
      ta->send(tb->local_id(), to_bytes("x"));
    });
  }
  ex.run();
  EXPECT_NEAR(received, kSent * 0.7, kSent * 0.03);
  EXPECT_EQ(net.stats().dropped_loss + net.stats().datagrams_delivered,
            static_cast<std::uint64_t>(kSent));
}

TEST_F(NetFixture, BandwidthSerialisesBackToBackSends) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link;
  link.latency_min = Duration{};
  link.latency_spread = Duration{};
  link.bandwidth_bps = 1000.0;  // 1 KB/s: 100 bytes take 100 ms each
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);

  std::vector<Duration> arrivals;
  tb->set_receive_handler([&](ServiceId, BytesView) {
    arrivals.push_back(ex.now().time_since_epoch());
  });
  Bytes payload(100, 0);
  for (int i = 0; i < 3; ++i) ta->send(tb->local_id(), payload);
  ex.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(to_millis(arrivals[0]), 100.0, 1.0);
  EXPECT_NEAR(to_millis(arrivals[1]), 200.0, 1.0);
  EXPECT_NEAR(to_millis(arrivals[2]), 300.0, 1.0);
}

TEST_F(NetFixture, RawLinkThroughputMatchesPaperCapacity) {
  // §V: the link "can sustain a throughput of approximately 575KB/s".
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  net.set_default_link(profiles::usb_ip_link());
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  std::uint64_t bytes = 0;
  TimePoint last{};
  tb->set_receive_handler([&](ServiceId, BytesView data) {
    bytes += data.size();
    last = ex.now();
  });
  Bytes payload(1400, 0);
  for (int i = 0; i < 2000; ++i) ta->send(tb->local_id(), payload);
  ex.run();
  double seconds_elapsed = to_seconds(last.time_since_epoch());
  double kbps = static_cast<double>(bytes) / 1024.0 / seconds_elapsed;
  EXPECT_NEAR(kbps, 575.0, 15.0);
}

TEST_F(NetFixture, HostCpuSerialisesReceiveProcessing) {
  CostModel slow;
  slow.per_packet_recv = milliseconds(10);
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", slow);
  net.set_default_link(profiles::perfect_link());
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  std::vector<Duration> handled;
  tb->set_receive_handler([&](ServiceId, BytesView) {
    handled.push_back(ex.now().time_since_epoch());
  });
  for (int i = 0; i < 3; ++i) ta->send(tb->local_id(), to_bytes("x"));
  ex.run();
  ASSERT_EQ(handled.size(), 3u);
  // Each packet costs 10 ms of CPU; they queue behind each other.
  EXPECT_GE(to_millis(handled[1] - handled[0]), 9.9);
  EXPECT_GE(to_millis(handled[2] - handled[1]), 9.9);
  EXPECT_GE(b.busy_time(), milliseconds(30));
}

TEST_F(NetFixture, BroadcastReachesAllOtherEndpoints) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  net.set_default_link(profiles::perfect_link());
  auto t1 = net.create_endpoint(a);
  auto t2 = net.create_endpoint(b);
  auto t3 = net.create_endpoint(b);
  int got1 = 0;
  int got2 = 0;
  int got3 = 0;
  t1->set_receive_handler([&](ServiceId, BytesView) { ++got1; });
  t2->set_receive_handler([&](ServiceId, BytesView) { ++got2; });
  t3->set_receive_handler([&](ServiceId, BytesView) { ++got3; });
  t1->broadcast(to_bytes("beacon"));
  ex.run();
  EXPECT_EQ(got1, 0);  // no self-delivery
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(got3, 1);
}

TEST_F(NetFixture, DownHostsLoseTraffic) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  net.set_default_link(profiles::perfect_link());
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int got = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++got; });

  b.set_up(false);
  ta->send(tb->local_id(), to_bytes("lost"));
  ex.run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(net.stats().dropped_down, 1u);

  b.set_up(true);
  ta->send(tb->local_id(), to_bytes("found"));
  ex.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, MtuDropsOversizedDatagrams) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link = profiles::perfect_link();
  link.mtu = 100;
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int got = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++got; });
  ta->send(tb->local_id(), Bytes(101, 0));
  ta->send(tb->local_id(), Bytes(100, 0));
  ex.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.stats().dropped_mtu, 1u);
}

TEST_F(NetFixture, DuplicationDeliversTwice) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link = profiles::perfect_link();
  link.dup = 1.0;
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int got = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++got; });
  ta->send(tb->local_id(), to_bytes("x"));
  ex.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST_F(NetFixture, BurstyLossLosesInBursts) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link = profiles::perfect_link();
  link.bursty = true;
  link.loss = 0.0;
  link.p_good_to_bad = 0.05;
  link.p_bad_to_good = 0.2;
  link.loss_bad = 1.0;
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  std::vector<bool> delivered;
  int idx = 0;
  tb->set_receive_handler([&](ServiceId, BytesView data) {
    Reader r(data);
    std::uint32_t seq = r.u32();
    while (static_cast<std::uint32_t>(delivered.size()) < seq) {
      delivered.push_back(false);
    }
    delivered.push_back(true);
  });
  for (int i = 0; i < 3000; ++i) {
    ex.schedule_at(TimePoint(milliseconds(i)), [&, i] {
      Writer w;
      w.u32(static_cast<std::uint32_t>(idx++));
      ta->send(tb->local_id(), w.bytes());
    });
  }
  ex.run();
  // Count loss runs ≥ 2: with bursty loss there should be many.
  int runs2 = 0;
  int losses = 0;
  int run = 0;
  for (bool ok : delivered) {
    if (!ok) {
      ++losses;
      ++run;
    } else {
      if (run >= 2) ++runs2;
      run = 0;
    }
  }
  EXPECT_GT(losses, 100);
  EXPECT_GT(runs2, 10);
}

TEST_F(NetFixture, EndpointDestroyedBeforeHandOverCountsTheDrop) {
  CostModel slow;
  slow.per_packet_recv = milliseconds(10);
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", slow);
  LinkModel link = profiles::perfect_link();
  link.latency_min = milliseconds(1);
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int handled = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++handled; });
  ta->send(tb->local_id(), to_bytes("late"));
  // Arrival at 1 ms queues 10 ms of receive work; the endpoint is gone
  // before the host gets to it.
  ex.run_until(TimePoint(milliseconds(5)));
  tb.reset();
  ex.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(net.stats().datagrams_delivered, 0u);
  EXPECT_EQ(net.stats().dropped_no_endpoint, 1u);
}

TEST_F(NetFixture, EndpointDestroyedInFlightCountsTheDrop) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", profiles::ideal_host());
  LinkModel link = profiles::perfect_link();
  link.latency_min = milliseconds(5);
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb = net.create_endpoint(b);
  int handled = 0;
  tb->set_receive_handler([&](ServiceId, BytesView) { ++handled; });
  ta->send(tb->local_id(), to_bytes("lost"));
  // The copy is on the link until 5 ms; its endpoint goes at 1 ms, and an
  // endpoint created afterwards on the same host never sees it.
  ex.run_until(TimePoint(milliseconds(1)));
  tb.reset();
  auto tb_next = net.create_endpoint(b);
  tb_next->set_receive_handler([&](ServiceId, BytesView) { ++handled; });
  ex.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(net.stats().datagrams_delivered, 0u);
  EXPECT_EQ(net.stats().dropped_no_endpoint, 1u);
}

TEST_F(NetFixture, EveryCopyIsDeliveredOrCountedInOneDropBucket) {
  // Conservation through the pooled in-flight slots: with duplication,
  // loss, a host going down, receive-side CPU queueing and an endpoint
  // destroyed while copies wait between arrival and hand-over, every copy
  // put on the wire ends delivered or in exactly one dropped_* bucket, and
  // every delivered payload is intact although slot buffers are reused
  // across datagrams of different sizes.
  CostModel slow;
  slow.per_packet_recv = milliseconds(1);
  SimHost& a = net.add_host("a", profiles::ideal_host());
  SimHost& b = net.add_host("b", slow);
  SimHost& c = net.add_host("c", profiles::ideal_host());
  LinkModel link = profiles::perfect_link();
  link.latency_min = milliseconds(1);
  link.latency_spread = milliseconds(4);
  link.loss = 0.2;
  link.dup = 0.3;
  net.set_default_link(link);
  auto ta = net.create_endpoint(a);
  auto tb1 = net.create_endpoint(b);
  auto tb2 = net.create_endpoint(b);
  auto tc = net.create_endpoint(c);
  const ServiceId targets[] = {tb1->local_id(), tb2->local_id(),
                               tc->local_id()};

  std::uint64_t handled = 0;
  bool intact = true;
  auto check = [&](ServiceId, BytesView d) {
    ++handled;
    // Payload i holds 1 + (i & 0xff) % 97 bytes, each equal to i & 0xff.
    for (std::uint8_t x : d) intact = intact && x == d[0];
    intact = intact && d.size() == 1 + d[0] % 97u;
  };
  tb1->set_receive_handler(check);
  tb2->set_receive_handler(check);
  tc->set_receive_handler(check);

  for (int i = 0; i < 600; ++i) {
    ex.schedule_at(TimePoint(microseconds(200 * i)), [&, i] {
      Bytes payload(1 + (i & 0xff) % 97, static_cast<std::uint8_t>(i));
      ta->send(targets[i % 3], payload);
    });
  }
  // b's receive queue runs far behind its arrivals, so when tb2 goes,
  // copies for it are waiting between arrival and hand-over.
  ex.schedule_at(TimePoint(milliseconds(40)), [&] { tb2.reset(); });
  net.schedule_fault(TimePoint(milliseconds(60)),
                     [&](SimNetwork&) { c.set_up(false); });
  net.schedule_fault(TimePoint(milliseconds(80)),
                     [&](SimNetwork&) { c.set_up(true); });
  ex.run();

  const SimNetwork::Stats& s = net.stats();
  EXPECT_TRUE(intact);
  EXPECT_EQ(s.datagrams_delivered, handled);
  EXPECT_EQ(s.datagrams_sent + s.duplicated,
            s.datagrams_delivered + s.dropped_loss + s.dropped_down +
                s.dropped_no_endpoint + s.dropped_mtu + s.dropped_partition);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.dropped_loss, 0u);
  EXPECT_GT(s.dropped_down, 0u);
  EXPECT_GT(s.dropped_no_endpoint, 0u);
}

TEST_F(NetFixture, SendToUnknownEndpointCounted) {
  SimHost& a = net.add_host("a", profiles::ideal_host());
  net.set_default_link(profiles::perfect_link());
  auto ta = net.create_endpoint(a);
  ta->send(ServiceId(0xDEAD), to_bytes("nobody"));
  ex.run();
  EXPECT_EQ(net.stats().dropped_no_endpoint, 1u);
}

}  // namespace
}  // namespace amuse
