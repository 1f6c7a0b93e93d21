// Executor-affinity runtime assertions and the amuse::Mutex wrappers
// (DESIGN.md §10).
//
// The static layers (clang -Wthread-safety over the capability wrappers;
// scripts/check_affinity.py over the AMUSE_AFFINITY call graph) prove the
// threading model at analysis time. This suite pins the *dynamic* layer:
//   - a foreign thread calling into executor-owned protocol state while
//     the run loop is live aborts with "affinity violation" (death test);
//   - the same call is fine from the consumer thread (a posted task) and
//     fine while no loop is running (single-threaded setup/teardown);
//   - the Mutex/MutexLock/CondVar wrappers behave like the std primitives
//     they replaced (mutual exclusion and wait/notify handshakes), so the
//     concurrency stress suite keeps its tsan coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "net/udp_transport.hpp"
#include "sim/real_executor.hpp"
#include "wire/reliable_channel.hpp"

namespace amuse {
namespace {

struct ChannelFixture {
  RealExecutor ex;
  std::vector<Bytes> wire;
  ReliableChannel channel;

  ChannelFixture()
      : channel(ex, ServiceId::from_addr_port(0x7F000001u, 1111),
                ServiceId::from_addr_port(0x7F000001u, 2222),
                /*session=*/7, ReliableChannelConfig{},
                [this](std::span<const Transport::Datagram> round) {
                  for (const auto& d : round) {
                    wire.emplace_back(d.data.begin(), d.data.end());
                  }
                },
                [](BytesView) {}) {}
};

#if defined(AMUSE_AFFINITY_ASSERTS) && defined(GTEST_HAS_DEATH_TEST)

TEST(AffinityDeathTest, ForeignThreadCallAbortsWhileLoopRuns) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ChannelFixture f;
        std::thread consumer([&f] { f.ex.run_for(seconds(30)); });
        // Wait until the consumer thread owns the loop: from that moment
        // this thread is provably foreign.
        while (f.ex.on_executor_thread()) {
          std::this_thread::yield();
        }
        // BUG under test: touching channel state from a foreign thread
        // while the loop runs. Must abort before corrupting anything.
        (void)f.channel.send(to_bytes("cross-thread"));
        consumer.join();
      },
      "affinity violation");
}

#endif  // AMUSE_AFFINITY_ASSERTS && GTEST_HAS_DEATH_TEST

TEST(Affinity, PostedCallRunsOnConsumerThreadWithoutAborting) {
  ChannelFixture f;
  std::atomic<bool> sent{false};
  // The sanctioned hop: post() the call; it executes inside the loop on
  // the consumer thread, where on_executor_thread() is true.
  f.ex.post([&f, &sent] {
    EXPECT_TRUE(f.ex.on_executor_thread());
    EXPECT_TRUE(f.channel.send(to_bytes("hopped")));
    sent = true;
    f.ex.stop();
  });
  f.ex.run_for(seconds(30));
  EXPECT_TRUE(sent.load());
  EXPECT_FALSE(f.wire.empty());
}

TEST(Affinity, IdleLoopCallsAreAllowedFromAnyThread) {
  // Test drivers and setup/teardown code call protocol methods while no
  // loop is running — single-threaded phases are always legal.
  ChannelFixture f;
  EXPECT_TRUE(f.ex.on_executor_thread());
  EXPECT_TRUE(f.channel.send(to_bytes("setup-phase")));

  std::thread other([&f] {
    // Still legal: the loop is not running, so there is no consumer
    // thread to conflict with (the checker can only prove violations).
    EXPECT_TRUE(f.ex.on_executor_thread());
  });
  other.join();
}

TEST(Affinity, LoopThreadIdentityTracksNestedRuns) {
  RealExecutor ex;
  std::atomic<bool> inner_ok{false};
  ex.post([&] {
    EXPECT_TRUE(ex.on_executor_thread());
    inner_ok = true;
    ex.stop();
  });
  ex.run_for(seconds(30));
  EXPECT_TRUE(inner_ok.load());
  // After the loop exits, the executor is idle again.
  EXPECT_TRUE(ex.on_executor_thread());
}

// ---------------------------------------------------------------------------
// amuse::Mutex / MutexLock / CondVar behave like the std primitives they
// replaced (the capability annotations are compile-time only).
// ---------------------------------------------------------------------------

struct GuardedCounter {
  Mutex mu;
  int value AMUSE_GUARDED_BY(mu) = 0;
};

TEST(MutexWrappers, MutualExclusionAcrossThreads) {
  GuardedCounter g;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(g.mu);
        ++g.value;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(g.mu);
  EXPECT_EQ(g.value, kThreads * kIncrements);
}

TEST(MutexWrappers, CondVarWaitNotifyHandshake) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread consumer([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(lock);
    observed = 42;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(MutexWrappers, CondVarWaitUntilTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  // Nothing ever notifies: wait_until must return at the deadline instead
  // of blocking forever (the RealExecutor loop leans on this).
  cv.wait_until(lock,
                std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(10));
  SUCCEED();
}

// ---------------------------------------------------------------------------
// UdpTransport wire counters (the satellite audit): monotonic relaxed
// totals visible from any thread.
// ---------------------------------------------------------------------------

TEST(UdpTransportStatsTest, CountersTrackSendAndReceive) {
  RealExecutor ex;
  UdpOptions opts;
  opts.broadcast_port = 0;  // kernel-chosen: no other test shares it
  std::unique_ptr<UdpTransport> a;
  std::unique_ptr<UdpTransport> b;
  try {
    a = UdpTransport::open(ex, opts);
    b = UdpTransport::open(ex, opts);
  } catch (const std::system_error&) {
    GTEST_SKIP() << "UDP sockets unavailable in this sandbox";
  }

  std::atomic<int> got{0};
  b->set_receive_handler([&](ServiceId, BytesView) {
    got.fetch_add(1);
    ex.stop();
  });
  const Bytes payload = to_bytes("count me");
  a->send(b->local_id(), payload);
  ex.run_for(seconds(5));
  ASSERT_EQ(got.load(), 1);

  UdpTransportStats sent = a->stats();
  EXPECT_EQ(sent.datagrams_sent, 1u);
  EXPECT_EQ(sent.send_failures, 0u);

  UdpTransportStats recv = b->stats();
  EXPECT_GE(recv.datagrams_received, 1u);
  EXPECT_GE(recv.bytes_received, payload.size());
}

}  // namespace
}  // namespace amuse
