// Real-UDP transport smoke tests (the prototype configuration, §IV).
// Skipped gracefully where the sandbox forbids sockets or multicast.
#include "net/udp_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>

#include "sim/real_executor.hpp"

namespace amuse {
namespace {

/// Opens an endpoint that shares `group`'s discovery port, or binds a fresh
/// kernel-chosen one when `group` is null, so concurrent tests never hear
/// each other's broadcasts.
std::unique_ptr<UdpTransport> try_open(Executor& ex,
                                       const UdpTransport* group = nullptr,
                                       bool batch_io = true) {
  UdpOptions opts;
  opts.broadcast_port = group != nullptr ? group->broadcast_port() : 0;
  opts.batch_io = batch_io;
  try {
    return UdpTransport::open(ex, opts);
  } catch (const std::system_error& e) {
    return nullptr;
  }
}

/// 4-byte little-endian sequence payloads for FIFO checks.
Bytes seq_payload(std::uint32_t n, std::size_t pad = 0) {
  Bytes b(4 + pad, 0xEE);
  std::memcpy(b.data(), &n, sizeof(n));
  return b;
}

TEST(UdpTransport, UnicastRoundTripOnLocalhost) {
  RealExecutor ex;
  auto a = try_open(ex);
  auto b = try_open(ex);
  if (!a || !b) GTEST_SKIP() << "UDP sockets unavailable in this sandbox";

  // The 48-bit id follows the prototype rule: loopback address + OS port.
  EXPECT_EQ(a->local_id().addr(), 0x7F000001u);
  EXPECT_NE(a->local_id().port(), 0);
  EXPECT_NE(a->local_id(), b->local_id());

  std::atomic<int> got{0};
  ServiceId from{};
  Bytes payload;
  b->set_receive_handler([&](ServiceId src, BytesView data) {
    from = src;
    payload = Bytes(data.begin(), data.end());
    got.fetch_add(1);
    ex.stop();
  });
  a->send(b->local_id(), to_bytes("over real sockets"));
  ex.run_for(seconds(5));

  ASSERT_EQ(got.load(), 1);
  EXPECT_EQ(from, a->local_id());
  EXPECT_EQ(to_string(payload), "over real sockets");
}

TEST(UdpTransport, BroadcastReachesOtherEndpointsNotSelf) {
  RealExecutor ex;
  auto a = try_open(ex);
  auto b = try_open(ex, a.get());
  auto c = try_open(ex, a.get());
  if (!a || !b || !c) GTEST_SKIP() << "UDP sockets unavailable";

  std::atomic<int> got_a{0};
  std::atomic<int> got_b{0};
  std::atomic<int> got_c{0};
  a->set_receive_handler([&](ServiceId, BytesView) { got_a.fetch_add(1); });
  b->set_receive_handler([&](ServiceId, BytesView) { got_b.fetch_add(1); });
  c->set_receive_handler([&](ServiceId, BytesView) { got_c.fetch_add(1); });

  a->broadcast(to_bytes("beacon"));
  ex.run_for(milliseconds(1500));

  if (got_b.load() == 0 && got_c.load() == 0) {
    GTEST_SKIP() << "loopback multicast unavailable in this sandbox";
  }
  EXPECT_EQ(got_a.load(), 0);  // no self-delivery
  EXPECT_GE(got_b.load(), 1);
  EXPECT_GE(got_c.load(), 1);
}

// The batched (recvmmsg/sendmmsg) and legacy (recvfrom/sendto) paths are
// byte-identical on the wire: either side may run either mode and the
// payloads and per-peer order must come through unchanged.
void check_interop(bool sender_batched, bool receiver_batched) {
  RealExecutor ex;
  auto tx = try_open(ex, nullptr, sender_batched);
  auto rx = try_open(ex, nullptr, receiver_batched);
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable in this sandbox";

  constexpr std::uint32_t kCount = 200;
  std::vector<std::uint32_t> seen;
  std::vector<std::size_t> sizes;
  rx->set_receive_handler([&](ServiceId src, BytesView data) {
    EXPECT_EQ(src, tx->local_id());
    ASSERT_GE(data.size(), 4u);
    std::uint32_t n = 0;
    std::memcpy(&n, data.data(), sizeof(n));
    seen.push_back(n);
    sizes.push_back(data.size());
    if (seen.size() == kCount) ex.stop();
  });

  // Mixed burst sizes exercise both single sends and sendmmsg flushes.
  std::vector<Bytes> payloads;
  payloads.reserve(kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    payloads.push_back(seq_payload(i, /*pad=*/i % 97));
  }
  std::size_t i = 0;
  while (i < kCount) {
    std::size_t burst = std::min<std::size_t>(1 + i % 7, kCount - i);
    std::vector<Transport::Datagram> dgrams;
    for (std::size_t k = 0; k < burst; ++k) {
      dgrams.push_back(
          Transport::Datagram{rx->local_id(), BytesView(payloads[i + k])});
    }
    tx->send_batch(dgrams);
    i += burst;
  }
  ex.run_for(seconds(10));

  ASSERT_EQ(seen.size(), kCount) << "loopback dropped datagrams";
  for (std::uint32_t n = 0; n < kCount; ++n) {
    EXPECT_EQ(seen[n], n);                 // per-peer FIFO
    EXPECT_EQ(sizes[n], 4u + n % 97);      // byte-identical payloads
  }
}

TEST(UdpTransport, InteropBatchedSenderLegacyReceiver) {
  check_interop(/*sender_batched=*/true, /*receiver_batched=*/false);
}

TEST(UdpTransport, InteropLegacySenderBatchedReceiver) {
  check_interop(/*sender_batched=*/false, /*receiver_batched=*/true);
}

TEST(UdpTransport, BatchedCountersAndFreelistRecycle) {
  RealExecutor ex;
  auto tx = try_open(ex);
  auto rx = try_open(ex);
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable in this sandbox";

  constexpr std::uint32_t kCount = 512;
  std::atomic<std::uint32_t> got{0};
  rx->set_receive_handler([&](ServiceId, BytesView) {
    if (got.fetch_add(1) + 1 == kCount) ex.stop();
  });

  std::vector<Bytes> payloads;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    payloads.push_back(seq_payload(i, 60));
  }
  for (std::uint32_t i = 0; i < kCount; i += 16) {
    std::vector<Transport::Datagram> dgrams;
    for (std::uint32_t k = 0; k < 16; ++k) {
      dgrams.push_back(
          Transport::Datagram{rx->local_id(), BytesView(payloads[i + k])});
    }
    tx->send_batch(dgrams);
  }
  ex.run_for(seconds(10));
  ASSERT_EQ(got.load(), kCount) << "loopback dropped datagrams";

  UdpTransportStats txs = tx->stats();
  EXPECT_EQ(txs.datagrams_sent, kCount);
  EXPECT_EQ(txs.send_failures, 0u);
  EXPECT_GT(txs.bytes_sent, 0u);
#if defined(AMUSE_HAVE_MMSG)
  // 16-datagram bursts through sendmmsg: far fewer syscalls than sends.
  EXPECT_GT(txs.batches_sent, 0u);
  EXPECT_LT(txs.send_syscalls, txs.datagrams_sent);
#endif

  UdpTransportStats rxs = rx->stats();
  EXPECT_EQ(rxs.datagrams_received, kCount);
  EXPECT_GT(rxs.recv_syscalls, 0u);
  EXPECT_GE(rxs.max_recv_batch, 1u);
  // The freelist must actually recycle: without it every acquire would be a
  // fresh allocation, so fresh >= kCount. How far below kCount fresh lands
  // depends on delivery-task lag (in-flight batches hold their slots), so
  // only the strict saving is asserted, not a fixed pool-depth bound.
  EXPECT_GT(rxs.buffers_recycled, 0u);
  EXPECT_GT(rxs.buffers_fresh, 0u);
  EXPECT_LT(rxs.buffers_fresh, kCount);
}

// Two peers interleave sends into one receiver: each peer's datagrams must
// reach the handler in the order that peer sent them.
TEST(UdpTransport, InterleavedPeersKeepPerPeerFifo) {
  RealExecutor ex;
  auto rx = try_open(ex);
  auto tx_a = try_open(ex);
  auto tx_b = try_open(ex);
  if (!rx || !tx_a || !tx_b) GTEST_SKIP() << "UDP sockets unavailable";

  constexpr std::uint32_t kPerPeer = 150;
  std::map<std::uint64_t, std::vector<std::uint32_t>> per_peer;
  std::uint32_t total = 0;
  rx->set_receive_handler([&](ServiceId src, BytesView data) {
    std::uint32_t n = 0;
    std::memcpy(&n, data.data(), sizeof(n));
    per_peer[src.raw()].push_back(n);
    if (++total == 2 * kPerPeer) ex.stop();
  });

  for (std::uint32_t i = 0; i < kPerPeer; ++i) {
    tx_a->send(rx->local_id(), seq_payload(i));
    tx_b->send(rx->local_id(), seq_payload(i));
  }
  ex.run_for(seconds(10));
  ASSERT_EQ(total, 2 * kPerPeer) << "loopback dropped datagrams";

  ASSERT_EQ(per_peer.size(), 2u);
  for (auto& [peer, seqs] : per_peer) {
    ASSERT_EQ(seqs.size(), kPerPeer);
    for (std::uint32_t n = 0; n < kPerPeer; ++n) {
      EXPECT_EQ(seqs[n], n) << "per-peer FIFO broken for " << peer;
    }
  }
}

TEST(RealExecutor, StatsCountBatchDrains) {
  RealExecutor ex;
  std::atomic<int> ran{0};
  // All four tasks are queued before run_for() starts, so the first drain
  // collects them as one batch under one lock acquisition.
  for (int i = 0; i < 3; ++i) {
    ex.post([&ran] { ran.fetch_add(1); });
  }
  ex.post([&ex] { ex.stop(); });
  ex.run_for(seconds(30));
  EXPECT_EQ(ran.load(), 3);

  RealExecutorStats s = ex.stats();
  EXPECT_EQ(s.tasks_run, 4u);
  EXPECT_EQ(s.wakeups, 1u);
  EXPECT_EQ(s.max_drain, 4u);
}

TEST(RealExecutor, RunsPostedTasksAndTimers) {
  RealExecutor ex;
  std::vector<int> order;
  ex.post([&] { order.push_back(1); });
  ex.schedule_after(milliseconds(30), [&] {
    order.push_back(2);
    ex.stop();
  });
  ex.run_for(seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RealExecutor, CancelWorks) {
  RealExecutor ex;
  bool ran = false;
  TimerId id = ex.schedule_after(milliseconds(20), [&] { ran = true; });
  ex.cancel(id);
  ex.run_for(milliseconds(100));
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace amuse
