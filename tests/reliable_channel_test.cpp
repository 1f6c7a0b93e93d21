// ReliableChannel tests: the delivery semantics of §II-C — exactly-once,
// per-sender FIFO, acknowledged and retransmitted — under loss, duplication,
// reordering and peer failure.
#include "wire/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <string_view>

#include "channel_sink.hpp"
#include "common/rng.hpp"
#include "sim/sim_executor.hpp"

namespace amuse {
namespace {

// Two channels joined by a controllable lossy pipe. An optional second
// config gives b its own knobs (e.g. interop between a legacy-configured
// sender and a batch-capable receiver).
class ChannelPair {
 public:
  explicit ChannelPair(ReliableChannelConfig config = {},
                       std::optional<ReliableChannelConfig> config_b =
                           std::nullopt) {
    // A channel's deliver callback fires for messages it *receives*:
    // channel a receives what b sent (sink at_a) and vice versa.
    a = std::make_unique<ReliableChannel>(
        ex, id_a, id_b, 111, config,
        each_frame([this](const Packet& p) {
          pipe(p, tap_from_a, drop_from_a, b);
        }),
        [this](BytesView msg) { at_a.emplace_back(to_string(msg)); },
        [this] { ++failures; });
    b = std::make_unique<ReliableChannel>(
        ex, id_b, id_a, 222, config_b.value_or(config),
        each_frame([this](const Packet& p) {
          pipe(p, tap_from_b, drop_from_b, a);
        }),
        [this](BytesView msg) { at_b.emplace_back(to_string(msg)); },
        [this] { ++failures; });
  }

  void pipe(const Packet& p, std::function<void(const Packet&)>& tap,
            std::function<bool(const Packet&)>& drop,
            std::unique_ptr<ReliableChannel>& target) {
    if (tap) tap(p);
    if (drop && drop(p)) return;
    Duration delay = base_delay;
    if (jitter > Duration{}) {
      delay += Duration(static_cast<std::int64_t>(
          rng.uniform() * static_cast<double>(jitter.count())));
    }
    Bytes wire = p.encode();
    ex.schedule_after(delay, [&target, wire] {
      if (target) {
        std::optional<Packet> q = Packet::decode(wire);
        if (q) target->on_packet(*q);
      }
    });
  }

  SimExecutor ex;
  Rng rng{987};
  ServiceId id_a = ServiceId::from_addr_port(0x0A000001, 1000);
  ServiceId id_b = ServiceId::from_addr_port(0x0A000002, 2000);
  Duration base_delay = milliseconds(1);
  Duration jitter{};
  std::function<void(const Packet&)> tap_from_a;  // sees every frame a sends
  std::function<void(const Packet&)> tap_from_b;
  std::function<bool(const Packet&)> drop_from_a;
  std::function<bool(const Packet&)> drop_from_b;
  std::unique_ptr<ReliableChannel> a;
  std::unique_ptr<ReliableChannel> b;
  std::vector<std::string> at_a;  // messages delivered to a (sent by b)
  std::vector<std::string> at_b;
  int failures = 0;
};

TEST(ReliableChannel, DeliversInOrderOnCleanLink) {
  ChannelPair p;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(p.a->send(to_bytes("msg" + std::to_string(i))));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.at_b[i], "msg" + std::to_string(i));
  }
  EXPECT_EQ(p.a->stats().retransmissions, 0u);
  EXPECT_EQ(p.a->in_flight(), 0u);
}

TEST(ReliableChannel, BidirectionalTrafficCoexists) {
  ChannelPair p;
  for (int i = 0; i < 10; ++i) {
    (void)p.a->send(to_bytes("a" + std::to_string(i)));
    (void)p.b->send(to_bytes("b" + std::to_string(i)));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 10u);
  ASSERT_EQ(p.at_a.size(), 10u);
  EXPECT_EQ(p.at_b[9], "a9");
  EXPECT_EQ(p.at_a[9], "b9");
}

TEST(ReliableChannel, RetransmitsThroughLoss) {
  ChannelPair p;
  int dropped = 0;
  // Drop the first transmission of every DATA packet.
  std::set<std::uint32_t> seen;
  p.drop_from_a = [&](const Packet& pk) {
    if (pk.type == PacketType::kData && seen.insert(pk.seq).second) {
      ++dropped;
      return true;
    }
    return false;
  };
  for (int i = 0; i < 8; ++i) (void)p.a->send(to_bytes(std::to_string(i)));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(p.at_b[i], std::to_string(i));
  EXPECT_GT(dropped, 0);
  EXPECT_GT(p.a->stats().retransmissions, 0u);
  EXPECT_EQ(p.failures, 0);
}

TEST(ReliableChannel, SurvivesTotalAckLoss) {
  ChannelPair p;
  int acks_eaten = 0;
  p.drop_from_b = [&](const Packet& pk) {
    if (pk.type == PacketType::kAck && acks_eaten < 3) {
      ++acks_eaten;
      return true;
    }
    return false;
  };
  (void)p.a->send(to_bytes("persist"));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  // Duplicates caused by retransmission were absorbed, not redelivered.
  EXPECT_EQ(p.at_b[0], "persist");
  EXPECT_GT(p.b->stats().duplicates_dropped, 0u);
}

TEST(ReliableChannel, WindowLimitsInFlight) {
  ReliableChannelConfig cfg;
  cfg.window = 4;
  ChannelPair p(cfg);
  // Block the pipe completely and observe the window cap.
  p.drop_from_a = [](const Packet&) { return true; };
  for (int i = 0; i < 100; ++i) (void)p.a->send(to_bytes("m"));
  EXPECT_EQ(p.a->in_flight(), 4u);
  EXPECT_EQ(p.a->queued(), 96u);
}

TEST(ReliableChannel, QueueBoundRejectsExcess) {
  ReliableChannelConfig cfg;
  cfg.window = 1;
  cfg.max_queue = 10;
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    if (p.a->send(to_bytes("m"))) ++accepted;
  }
  // window(1) + queue(10)… the first send goes straight to the window.
  EXPECT_EQ(accepted, 11);
}

TEST(ReliableChannel, FailureReportedAfterMaxRetries) {
  ReliableChannelConfig cfg;
  cfg.max_retries = 3;
  cfg.rto_initial = milliseconds(10);
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };
  (void)p.a->send(to_bytes("doomed"));
  p.ex.run_for(seconds(60));
  EXPECT_EQ(p.failures, 1);
  EXPECT_TRUE(p.a->failed());
  // The message is retained, not dropped (persistence until purge).
  EXPECT_EQ(p.a->in_flight(), 1u);
}

TEST(ReliableChannel, PokeResumesAfterFailure) {
  ReliableChannelConfig cfg;
  cfg.max_retries = 2;
  cfg.rto_initial = milliseconds(10);
  ChannelPair p(cfg);
  bool blocked = true;
  p.drop_from_a = [&](const Packet&) { return blocked; };
  (void)p.a->send(to_bytes("delayed"));
  p.ex.run_for(seconds(10));
  ASSERT_TRUE(p.a->failed());

  blocked = false;
  p.a->poke();
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0], "delayed");
  EXPECT_FALSE(p.a->failed());
}

TEST(ReliableChannel, IncomingAckAlsoClearsFailure) {
  ReliableChannelConfig cfg;
  cfg.max_retries = 2;
  cfg.rto_initial = milliseconds(10);
  ChannelPair p(cfg);
  bool blocked = true;
  p.drop_from_a = [&](const Packet&) { return blocked; };
  (void)p.a->send(to_bytes("first"));
  p.ex.run_for(seconds(10));
  ASSERT_TRUE(p.a->failed());
  blocked = false;
  // Traffic from the peer (its own DATA carrying an ack) revives us after
  // poke(); simulate the discovery service noticing and poking.
  p.a->poke();
  p.ex.run();
  EXPECT_EQ(p.at_b.size(), 1u);
}

TEST(ReliableChannel, ResetDropsOutboundData) {
  ChannelPair p;
  p.drop_from_a = [](const Packet&) { return true; };
  for (int i = 0; i < 5; ++i) (void)p.a->send(to_bytes("queued"));
  EXPECT_GT(p.a->in_flight() + p.a->queued(), 0u);
  p.a->reset();
  EXPECT_EQ(p.a->in_flight(), 0u);
  EXPECT_EQ(p.a->queued(), 0u);
  // After reset the channel still works for new messages.
  p.drop_from_a = nullptr;
  (void)p.a->send(to_bytes("after-reset"));
  p.ex.run();
  // Seqs 0..4 never reached the peer, so it never adopted session 111;
  // the post-reset message arrives mid-stream (seq 5) in an unknown session
  // and is dropped — which is why a purge-then-readmit always uses a fresh
  // session starting at seq 0 (tested below).
  EXPECT_TRUE(p.at_b.empty());
  // ≥1: the sender retransmits the unacknowledged message, and every copy
  // is dropped as stale.
  EXPECT_GE(p.b->stats().stale_session_dropped, 1u);
}

TEST(ReliableChannel, NewSessionAdoptedAtSeqZero) {
  ChannelPair p;
  (void)p.a->send(to_bytes("one"));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);

  // The member is purged and re-admitted: a fresh channel incarnation with
  // a new session id starts at seq 0 again.
  ReliableChannelConfig cfg;
  auto fresh = std::make_unique<ReliableChannel>(
      p.ex, p.id_a, p.id_b, /*session=*/333, cfg,
      each_frame([&p](const Packet& pk) {
        Bytes wire = pk.encode();
        p.ex.schedule_after(milliseconds(1), [&p, wire] {
          std::optional<Packet> q = Packet::decode(wire);
          if (q) p.b->on_packet(*q);
        });
      }),
      [](BytesView) {});
  (void)fresh->send(to_bytes("fresh"));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 2u);
  EXPECT_EQ(p.at_b[1], "fresh");
}

TEST(ReliableChannel, StaleSessionPacketsDropped) {
  ChannelPair p;
  (void)p.a->send(to_bytes("current"));
  p.ex.run();

  // Forge a mid-stream packet from an unknown session: must be ignored.
  Packet stale;
  stale.type = PacketType::kData;
  stale.session = 999;
  stale.src = p.id_a;
  stale.dst = p.id_b;
  stale.seq = 7;  // not zero → cannot start a new incarnation
  stale.payload = to_bytes("ghost");
  p.b->on_packet(stale);
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.b->stats().stale_session_dropped, 1u);
}

TEST(ReliableChannel, RejoinedPeerNeverDeliversStaleBatchedBacklog) {
  // A purged-and-rejoined peer's fresh receiver is told (by the membership
  // handshake) the session its new stream will speak. Retransmissions from
  // the previous incarnation — including the seq-0 frame that would win
  // the adoption race, and a batched frame whose sub-messages are the old
  // queued backlog — must be dropped whole, not delivered or acknowledged.
  ChannelPair p;
  Bytes stale_seq0, stale_batch;
  p.tap_from_a = [&](const Packet& pk) {
    if (pk.type != PacketType::kData) return;
    if (pk.seq == 0) stale_seq0 = pk.encode();
    if (pk.flags & kFlagBatched) stale_batch = pk.encode();
  };
  for (int i = 0; i < 5; ++i) {
    (void)p.a->send(to_bytes("old" + std::to_string(i)));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 5u);  // old incarnation: all delivered
  ASSERT_FALSE(stale_seq0.empty());
  ASSERT_FALSE(stale_batch.empty());  // old1..old4 coalesced after the ack

  // Fresh receiver incarnation; the reserved session for the new stream is
  // 444, so anything below is a relic of the purged incarnation.
  ReliableChannelConfig fresh_cfg;
  fresh_cfg.min_peer_session = 444;
  std::vector<std::string> at_b2;
  std::vector<Packet> b2_out;
  std::function<void(const Packet&)> b2_send =
      [&](const Packet& pk) { b2_out.push_back(pk); };
  ReliableChannel b2(
      p.ex, p.id_b, p.id_a, /*session=*/334, fresh_cfg,
      each_frame([&](const Packet& pk) { b2_send(pk); }),
      [&](BytesView m) { at_b2.emplace_back(to_string(m)); });

  b2.on_packet(*Packet::decode(stale_seq0));   // adoption race: seq 0
  b2.on_packet(*Packet::decode(stale_batch));  // stale batched backlog
  p.ex.run();
  EXPECT_TRUE(at_b2.empty());
  EXPECT_EQ(b2.stats().stale_session_dropped, 2u);
  // A stale frame must not even be acknowledged — an ack would let the old
  // incarnation's sender advance as if the new member had the data.
  EXPECT_TRUE(b2_out.empty());

  // The reserved-session sender delivers normally, batching included.
  ReliableChannel a2(
      p.ex, p.id_a, p.id_b, /*session=*/444, ReliableChannelConfig{},
      each_frame([&](const Packet& pk) {
        Bytes wire = pk.encode();
        p.ex.schedule_after(milliseconds(1), [&b2, wire] {
          std::optional<Packet> q = Packet::decode(wire);
          if (q) b2.on_packet(*q);
        });
      }),
      [](BytesView) {});
  b2_send = [&](const Packet& pk) {
    Bytes wire = pk.encode();
    p.ex.schedule_after(milliseconds(1), [&a2, wire] {
      std::optional<Packet> q = Packet::decode(wire);
      if (q) a2.on_packet(*q);
    });
  };
  for (int i = 0; i < 5; ++i) {
    (void)a2.send(to_bytes("new" + std::to_string(i)));
  }
  p.ex.run();
  ASSERT_EQ(at_b2.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(at_b2[i], "new" + std::to_string(i));
  }
}

TEST(ReliableChannel, IgnoresPacketsFromWrongPeer) {
  ChannelPair p;
  Packet foreign;
  foreign.type = PacketType::kData;
  foreign.session = 1;
  foreign.src = ServiceId(0xBEEF);
  foreign.dst = p.id_b;
  foreign.seq = 0;
  foreign.payload = to_bytes("intruder");
  p.b->on_packet(foreign);
  p.ex.run();
  EXPECT_TRUE(p.at_b.empty());
}

TEST(ReliableChannel, NonsenseAckIgnored) {
  ChannelPair p;
  (void)p.a->send(to_bytes("x"));
  Packet bogus;
  bogus.type = PacketType::kAck;
  bogus.session = 222;
  bogus.src = p.id_b;
  bogus.dst = p.id_a;
  bogus.ack = 1000;  // acks messages never sent
  p.a->on_packet(bogus);
  p.ex.run();
  EXPECT_EQ(p.at_b.size(), 1u);  // normal flow unaffected
}

// ---- Property test: exactly-once, per-sender FIFO under randomised chaos.

class ChannelChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelChaosTest, ExactlyOnceInOrderUnderLossDupReorder) {
  ReliableChannelConfig cfg;
  cfg.rto_initial = milliseconds(30);
  cfg.max_retries = 30;
  ChannelPair p(cfg);
  Rng chaos(GetParam());
  p.jitter = milliseconds(8);  // reordering via random delays
  double loss = 0.05 + 0.3 * chaos.uniform();
  p.drop_from_a = [&, loss](const Packet&) mutable {
    return chaos.chance(loss);
  };
  p.drop_from_b = [&, loss](const Packet&) mutable {
    return chaos.chance(loss * 0.5);
  };

  constexpr int kMessages = 120;
  int sent = 0;
  // Trickle sends over time so the window never hard-blocks the test.
  std::function<void()> pump = [&] {
    for (int burst = 0; burst < 4 && sent < kMessages; ++burst) {
      ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(sent))));
      ++sent;
    }
    if (sent < kMessages) {
      p.ex.schedule_after(milliseconds(20), pump);
    }
  };
  pump();
  p.ex.run_for(seconds(120));
  p.ex.run();

  ASSERT_EQ(p.at_b.size(), static_cast<std::size_t>(kMessages))
      << "seed " << GetParam() << " loss " << loss;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(p.at_b[i], "m" + std::to_string(i)) << "seed " << GetParam();
  }
  EXPECT_EQ(p.failures, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ---- Fragmentation (small-MTU transports like ZigBee, §VI).

TEST(ReliableChannelFragmentation, LargeMessageIsSplitAndReassembled) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  ChannelPair p(cfg);
  Bytes big(350, 0);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(p.a->send(Bytes(big)));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(Bytes(p.at_b[0].begin(), p.at_b[0].end()), big);
  EXPECT_EQ(p.a->stats().fragments_sent, 4u);  // 100+100+100+50
  EXPECT_EQ(p.b->stats().messages_reassembled, 1u);
  EXPECT_EQ(p.b->stats().messages_delivered, 1u);  // one *message*
}

TEST(ReliableChannelFragmentation, SmallMessagesAreNotFragmented) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  ChannelPair p(cfg);
  ASSERT_TRUE(p.a->send(to_bytes("short")));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.a->stats().fragments_sent, 0u);
  EXPECT_EQ(p.b->stats().messages_reassembled, 0u);
}

TEST(ReliableChannelFragmentation, ExactMultipleBoundary) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  ChannelPair p(cfg);
  ASSERT_TRUE(p.a->send(Bytes(200, 7)));  // exactly two full fragments
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0].size(), 200u);
  EXPECT_EQ(p.a->stats().fragments_sent, 2u);
}

TEST(ReliableChannelFragmentation, InterleavedWithSmallMessagesStaysOrdered) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 50;
  ChannelPair p(cfg);
  (void)p.a->send(to_bytes("first"));
  (void)p.a->send(Bytes(120, 'x'));  // 3 fragments
  (void)p.a->send(to_bytes("last"));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 3u);
  EXPECT_EQ(p.at_b[0], "first");
  EXPECT_EQ(p.at_b[1].size(), 120u);
  EXPECT_EQ(p.at_b[2], "last");
}

TEST(ReliableChannelFragmentation, SurvivesFragmentLoss) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 64;
  cfg.rto_initial = milliseconds(30);
  ChannelPair p(cfg);
  Rng chaos(77);
  p.drop_from_a = [&](const Packet& pk) {
    return pk.type == PacketType::kData && chaos.chance(0.3);
  };
  Bytes big(1000, 0);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(p.a->send(Bytes(big)));
  p.ex.run_for(seconds(60));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(Bytes(p.at_b[0].begin(), p.at_b[0].end()), big);
}

TEST(ReliableChannelFragmentation, QueueBoundIsAllOrNothing) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 10;
  cfg.window = 1;
  cfg.max_queue = 5;
  ChannelPair p(cfg);
  p.drop_from_a = [](const Packet&) { return true; };  // wedge the window
  // 60 bytes → 6 fragments > queue bound of 5 after the first message.
  ASSERT_TRUE(p.a->send(Bytes(30, 1)));   // 3 fragments fit
  ASSERT_FALSE(p.a->send(Bytes(60, 2)));  // would need 6 slots: rejected
  EXPECT_EQ(p.a->queued() + p.a->in_flight(), 3u);
}

TEST(ReliableChannelFragmentation, ReassemblyOverflowDropsMessage) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  cfg.max_reassembly_bytes = 250;
  ChannelPair p(cfg);
  ASSERT_TRUE(p.a->send(Bytes(400, 9)));  // exceeds the receiver's bound
  ASSERT_TRUE(p.a->send(to_bytes("after")));
  p.ex.run();
  // The oversized message is dropped but the stream continues.
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0], "after");
  EXPECT_GE(p.b->stats().reassembly_overflow_dropped, 1u);
}

TEST(ReliableChannelFragmentation, AdaptiveRtoStillLearns) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 64;
  ChannelPair p(cfg);
  (void)p.a->send(Bytes(500, 3));
  p.ex.run();
  EXPECT_GT(p.a->srtt(), Duration{});
}

// ---- SharedPayload: owned head + shared immutable tail (encode-once
// fan-out support).

TEST(ReliableChannelSharedPayload, HeadAndTailArriveAsOneMessage) {
  ChannelPair p;
  auto tail = SharedBytes(to_bytes("shared-body"));
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("head:"), tail)));
  // The same tail can back many messages without copying.
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("other:"), tail)));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 2u);
  EXPECT_EQ(p.at_b[0], "head:shared-body");
  EXPECT_EQ(p.at_b[1], "other:shared-body");
}

TEST(ReliableChannelSharedPayload, NullTailIsHeadOnly) {
  ChannelPair p;
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("solo"))));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0], "solo");
}

TEST(ReliableChannelSharedPayload, TailSurvivesSenderReleasingItsReference) {
  // The channel keeps the tail alive across retransmissions even after the
  // fan-out that produced it is long gone.
  ReliableChannelConfig cfg;
  ChannelPair p(cfg);
  int dropped = 0;
  p.drop_from_a = [&](const Packet& pk) {
    // Drop the first two transmissions.
    return pk.type == PacketType::kData && ++dropped <= 2;
  };
  {
    auto tail = SharedBytes(to_bytes("-persistent"));
    ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("msg"), tail)));
  }  // sender's reference gone; only the channel holds the bytes now
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0], "msg-persistent");
  EXPECT_GT(p.a->stats().retransmissions, 0u);
}

TEST(ReliableChannelSharedPayload, OversizeSharedMessageIsFragmented) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 64;
  ChannelPair p(cfg);
  Bytes body(150, 0);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i);
  }
  auto tail = SharedBytes(body);
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("hdr"), tail)));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  Bytes expected = to_bytes("hdr");
  expected.insert(expected.end(), body.begin(), body.end());
  EXPECT_EQ(Bytes(p.at_b[0].begin(), p.at_b[0].end()), expected);
  EXPECT_EQ(p.b->stats().messages_reassembled, 1u);
}

// ---- Frame coalescing: queued small messages share one batched DATA
// frame; knobs off reproduce the legacy wire format byte for byte.

// Builds a batched DATA frame the way a remote sender would put it on the
// wire (encode → decode round trip yields the contiguous payload form).
Packet forge_batched(ServiceId src, ServiceId dst, std::uint32_t session,
                     std::uint32_t seq,
                     const std::vector<Bytes>& messages) {
  Packet p;
  p.type = PacketType::kData;
  p.flags = kFlagBatched;
  p.session = session;
  p.src = src;
  p.dst = dst;
  p.seq = seq;
  for (const Bytes& m : messages) {
    p.batch.push_back(Packet::Sub{BytesView(m), BytesView{}});
  }
  std::optional<Packet> q = Packet::decode(p.encode());
  EXPECT_TRUE(q.has_value());
  return *q;
}

TEST(ReliableChannelCoalescing, DisabledKnobsAreByteIdenticalLegacy) {
  ReliableChannelConfig off;
  off.max_batch_messages = 0;
  off.max_batch_bytes = 0;
  off.ack_delay = Duration{};
  ChannelPair p(off);
  std::vector<Bytes> data_frames;
  int ack_frames = 0;
  p.tap_from_a = [&](const Packet& pk) {
    if (pk.type == PacketType::kData) data_frames.push_back(pk.encode());
  };
  p.tap_from_b = [&](const Packet& pk) {
    if (pk.type == PacketType::kAck) ++ack_frames;
  };
  ASSERT_TRUE(p.a->send(to_bytes("alpha")));
  ASSERT_TRUE(p.a->send(to_bytes("beta")));
  p.ex.run();

  ASSERT_EQ(p.at_b.size(), 2u);
  ASSERT_EQ(data_frames.size(), 2u);
  // Reconstruct what the pre-coalescing wire format put on the link.
  Packet want;
  want.type = PacketType::kData;
  want.session = 111;
  want.src = p.id_a;
  want.dst = p.id_b;
  want.seq = 0;
  want.ack = 0;
  want.payload = to_bytes("alpha");
  EXPECT_EQ(data_frames[0], want.encode());
  want.seq = 1;
  want.payload = to_bytes("beta");
  EXPECT_EQ(data_frames[1], want.encode());
  // …and the legacy ack discipline: one immediate ack per DATA frame.
  EXPECT_EQ(ack_frames, 2);
  EXPECT_EQ(p.b->stats().acks_delayed, 0u);
  EXPECT_EQ(p.a->stats().batches_sent, 0u);
}

TEST(ReliableChannelCoalescing, QueuedSmallMessagesShareOneFrame) {
  ChannelPair p;  // defaults: coalescing + delayed acks on
  int data_frames = 0;
  int batched_frames = 0;
  p.tap_from_a = [&](const Packet& pk) {
    if (pk.type != PacketType::kData) return;
    ++data_frames;
    if ((pk.flags & kFlagBatched) != 0) ++batched_frames;
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(i))));
  }
  p.ex.run();

  ASSERT_EQ(p.at_b.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.at_b[i], "m" + std::to_string(i));
  }
  // First message goes out alone (nothing in flight to wait behind); the
  // rest coalesce ack-clocked: window space 8 → one batch of 8, then the
  // last message alone. 3 datagrams carry 10 messages.
  EXPECT_EQ(data_frames, 3);
  EXPECT_EQ(batched_frames, 1);
  EXPECT_EQ(p.a->stats().batches_sent, 1u);
  EXPECT_EQ(p.a->stats().batched_messages, 8u);
  EXPECT_EQ(p.a->stats().datagrams_sent, 3u);
  EXPECT_EQ(p.a->stats().retransmissions, 0u);
}

TEST(ReliableChannelCoalescing, SaturationDatagramEconomy) {
  ChannelPair p;
  constexpr int kMessages = 48;
  int sent = 0;
  std::function<void()> pump = [&] {
    for (int burst = 0; burst < 8 && sent < kMessages; ++burst) {
      ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(sent++))));
    }
    if (sent < kMessages) p.ex.schedule_after(milliseconds(5), pump);
  };
  pump();
  p.ex.run();

  ASSERT_EQ(p.at_b.size(), static_cast<std::size_t>(kMessages));
  // Both directions together (DATA + ACK datagrams) stay well under the
  // legacy cost of 2 datagrams per message — the PR's headline invariant.
  std::uint64_t total = p.a->stats().datagrams_sent +
                        p.b->stats().datagrams_sent;
  EXPECT_LT(static_cast<double>(total) / kMessages, 1.2);
  EXPECT_GT(p.a->stats().batches_sent, 0u);
  EXPECT_GT(p.b->stats().acks_delayed, 0u);
}

TEST(ReliableChannelCoalescing, LostBatchIsRetransmittedAndDeliveredOnce) {
  ChannelPair p;
  bool dropped_one = false;
  p.drop_from_a = [&](const Packet& pk) {
    if (!dropped_one && (pk.flags & kFlagBatched) != 0) {
      dropped_one = true;
      return true;
    }
    return false;
  };
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(i))));
  }
  p.ex.run();

  ASSERT_TRUE(dropped_one);
  ASSERT_EQ(p.at_b.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(p.at_b[i], "m" + std::to_string(i));
  // The whole lost batch was retransmitted (go-back-N re-coalesces it).
  EXPECT_GT(p.a->stats().retransmissions, 0u);
  EXPECT_GE(p.a->stats().batches_sent, 2u);
  EXPECT_EQ(p.failures, 0);
}

TEST(ReliableChannelCoalescing, PartialBatchOverlapDeliversOnlyUnseenTail) {
  ChannelPair p;
  // Adopt a forged session at seq 0 with a batch of two, then replay a
  // batch covering [1, 3): sub at seq 1 is already delivered (a partially
  // acked batch retransmitted by a peer that missed our ack), only seq 2
  // is new.
  p.b->on_packet(forge_batched(p.id_a, p.id_b, /*session=*/111, /*seq=*/0,
                               {to_bytes("A"), to_bytes("B")}));
  std::uint64_t dup_before = p.b->stats().duplicates_dropped;
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, /*seq=*/1,
                               {to_bytes("B"), to_bytes("C")}));
  p.ex.run();

  ASSERT_EQ(p.at_b.size(), 3u);
  EXPECT_EQ(p.at_b[0], "A");
  EXPECT_EQ(p.at_b[1], "B");
  EXPECT_EQ(p.at_b[2], "C");
  EXPECT_EQ(p.b->stats().duplicates_dropped, dup_before + 1);
}

TEST(ReliableChannelCoalescing, WhollyStaleBatchCountsOneDuplicate) {
  ChannelPair p;
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0,
                               {to_bytes("A"), to_bytes("B")}));
  ASSERT_EQ(p.at_b.size(), 2u);
  std::uint64_t acks_before = p.b->stats().acks_sent;
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0,
                               {to_bytes("A"), to_bytes("B")}));
  EXPECT_EQ(p.at_b.size(), 2u);  // nothing redelivered
  // The re-ack is delayed, not immediate.
  EXPECT_EQ(p.b->stats().acks_sent, acks_before);
  p.ex.run();
  EXPECT_EQ(p.b->stats().acks_sent, acks_before + 1);
}

TEST(ReliableChannelCoalescing, OutOfOrderBatchIsBufferedPerSeq) {
  ChannelPair p;
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0, {to_bytes("m0")}));
  ASSERT_EQ(p.at_b.size(), 1u);
  std::uint64_t acks_before = p.b->stats().acks_sent;
  // A batch ahead of the stream: buffer its subs, ack immediately (the
  // duplicate cumulative ack drives the sender's fast retransmit).
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, /*seq=*/2,
                               {to_bytes("m2"), to_bytes("m3")}));
  EXPECT_EQ(p.b->stats().acks_sent, acks_before + 1);
  EXPECT_EQ(p.b->stats().out_of_order_buffered, 2u);
  EXPECT_EQ(p.at_b.size(), 1u);
  // The hole fills: buffered subs drain in order.
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 1, {to_bytes("m1")}));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p.at_b[i], "m" + std::to_string(i));
}

TEST(ReliableChannelCoalescing, MalformedBatchIsDroppedWithoutStateChange) {
  ChannelPair p;
  Packet bad;
  bad.type = PacketType::kData;
  bad.flags = kFlagBatched;
  bad.session = 111;
  bad.src = p.id_a;
  bad.dst = p.id_b;
  bad.seq = 0;
  bad.payload = to_bytes("\x00\x09x");  // claims 9 bytes, has 1
  p.b->on_packet(bad);
  p.ex.run();
  EXPECT_TRUE(p.at_b.empty());
  EXPECT_EQ(p.b->stats().malformed_batch_dropped, 1u);
  // The garbage frame must not have adopted a session: a valid stream from
  // a different incarnation still starts cleanly at seq 0.
  p.b->on_packet(forge_batched(p.id_a, p.id_b, /*session=*/777, 0,
                               {to_bytes("ok")}));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.at_b[0], "ok");
}

TEST(ReliableChannelCoalescing, FragmentsAreNeverBatched) {
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  ChannelPair p(cfg);
  p.tap_from_a = [&](const Packet& pk) {
    // A frame is a fragment or a batch, never both.
    EXPECT_FALSE((pk.flags & kFlagBatched) != 0 &&
                 (pk.flags & kFlagMoreFragments) != 0);
    if ((pk.flags & kFlagBatched) != 0) {
      // Sender-side batches hold subs in `batch`; the wire form must
      // decode (i.e. tile into sub-messages) on the receiving side.
      std::optional<Packet> q = Packet::decode(pk.encode());
      ASSERT_TRUE(q.has_value());
      ASSERT_TRUE(Packet::split_batch(q->payload).has_value());
    }
  };
  ASSERT_TRUE(p.a->send(Bytes(350, 0x42)));  // 4 fragments
  ASSERT_TRUE(p.a->send(to_bytes("tail-1")));
  ASSERT_TRUE(p.a->send(to_bytes("tail-2")));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 3u);
  EXPECT_EQ(p.at_b[0].size(), 350u);
  EXPECT_EQ(p.at_b[1], "tail-1");
  EXPECT_EQ(p.at_b[2], "tail-2");
  EXPECT_EQ(p.b->stats().messages_reassembled, 1u);
}

TEST(ReliableChannelCoalescing, BatchRespectsFragmentSizeBudget) {
  // On a small-MTU transport every frame — batched or not — must stay
  // within the fragment payload bound.
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 100;
  ChannelPair p(cfg);
  std::size_t max_frame = 0;
  p.tap_from_a = [&](const Packet& pk) {
    max_frame = std::max(max_frame, pk.encode().size());
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(p.a->send(Bytes(40, static_cast<std::uint8_t>(i))));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 10u);
  EXPECT_LE(max_frame, 100u + Packet::kOverhead);
  EXPECT_GT(p.a->stats().batches_sent, 0u);
}

TEST(ReliableChannelCoalescing, OversizedMessageTravelsAloneUnbatched) {
  ChannelPair p;  // default budget 8192 B
  std::vector<std::uint32_t> batched_seqs;
  p.tap_from_a = [&](const Packet& pk) {
    if ((pk.flags & kFlagBatched) != 0) batched_seqs.push_back(pk.seq);
  };
  ASSERT_TRUE(p.a->send(Bytes(9000, 0x7E)));  // over budget: legacy frame
  ASSERT_TRUE(p.a->send(to_bytes("s0")));
  ASSERT_TRUE(p.a->send(to_bytes("s1")));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 3u);
  EXPECT_EQ(p.at_b[0].size(), 9000u);
  // Only the two small messages coalesced (as seq 1).
  ASSERT_EQ(batched_seqs.size(), 1u);
  EXPECT_EQ(batched_seqs[0], 1u);
}

TEST(ReliableChannelCoalescing, SharedTailsBlitIntoBatchedFrames) {
  ChannelPair p;
  auto tail = SharedBytes(to_bytes("|shared-body"));
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("h0"), tail)));
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("h1"), tail)));
  ASSERT_TRUE(p.a->send(SharedPayload(to_bytes("h2"), tail)));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 3u);
  EXPECT_EQ(p.at_b[0], "h0|shared-body");
  EXPECT_EQ(p.at_b[1], "h1|shared-body");
  EXPECT_EQ(p.at_b[2], "h2|shared-body");
  // h1 and h2 coalesced behind h0's flight.
  EXPECT_EQ(p.a->stats().batches_sent, 1u);
  EXPECT_EQ(p.a->stats().batched_messages, 2u);
}

TEST(ReliableChannelCoalescing, ChaosWithLossKeepsExactlyOnceFifo) {
  // The generic chaos suite runs with default (coalescing) config too, but
  // pin one seed with heavy loss so partial-batch ack + re-batched
  // retransmission paths are exercised deterministically in this suite.
  ReliableChannelConfig cfg;
  cfg.rto_initial = milliseconds(30);
  cfg.max_retries = 30;
  ChannelPair p(cfg);
  Rng chaos(4242);
  p.jitter = milliseconds(8);
  p.drop_from_a = [&](const Packet&) { return chaos.chance(0.3); };
  p.drop_from_b = [&](const Packet&) { return chaos.chance(0.15); };
  constexpr int kMessages = 100;
  int sent = 0;
  std::function<void()> pump = [&] {
    for (int burst = 0; burst < 6 && sent < kMessages; ++burst) {
      ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(sent++))));
    }
    if (sent < kMessages) p.ex.schedule_after(milliseconds(15), pump);
  };
  pump();
  p.ex.run_for(seconds(120));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(p.at_b[i], "m" + std::to_string(i));
  }
  EXPECT_GT(p.a->stats().batches_sent, 0u);
  EXPECT_EQ(p.failures, 0);
}

// ---- Interop: batching is flag-gated under the same packet version, so
// mixed deployments (upgraded bus, legacy members — or vice versa) work.

TEST(ReliableChannelInterop, UnbatchedSenderToBatchCapableReceiver) {
  ReliableChannelConfig legacy;
  legacy.max_batch_messages = 0;
  legacy.max_batch_bytes = 0;
  legacy.ack_delay = Duration{};
  ChannelPair p(legacy, ReliableChannelConfig{});  // a legacy, b modern
  p.tap_from_a = [&](const Packet& pk) {
    EXPECT_EQ(pk.flags & kFlagBatched, 0);
  };
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(p.a->send(to_bytes("v1-" + std::to_string(i))));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(p.at_b[i], "v1-" + std::to_string(i));
  }
  EXPECT_EQ(p.a->stats().batches_sent, 0u);
}

TEST(ReliableChannelInterop, BatchingSenderToLegacyConfiguredReceiver) {
  // The receive path understands batched frames regardless of config —
  // the knobs only govern what a sender emits and how acks are timed.
  ReliableChannelConfig legacy;
  legacy.max_batch_messages = 0;
  legacy.max_batch_bytes = 0;
  legacy.ack_delay = Duration{};
  ChannelPair p(legacy, ReliableChannelConfig{});  // b is the modern sender
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(p.b->send(to_bytes("v2-" + std::to_string(i))));
  }
  p.ex.run();
  ASSERT_EQ(p.at_a.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(p.at_a[i], "v2-" + std::to_string(i));
  }
  EXPECT_GT(p.b->stats().batches_sent, 0u);
}

// ---- Delayed acks (RFC 1122-style ack-every-2nd-or-timeout).

TEST(ReliableChannelDelayedAck, SingleFrameAckedOnceAfterDelay) {
  ChannelPair p;
  ASSERT_TRUE(p.a->send(to_bytes("lonely")));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  EXPECT_EQ(p.b->stats().acks_sent, 1u);
  EXPECT_EQ(p.b->stats().acks_delayed, 1u);
  EXPECT_EQ(p.a->in_flight(), 0u);  // the delayed ack did arrive
}

TEST(ReliableChannelDelayedAck, SecondFrameForcesImmediateAck) {
  // Disable batching on the sender so two messages mean two DATA frames.
  ReliableChannelConfig no_batch;
  no_batch.max_batch_messages = 0;
  no_batch.max_batch_bytes = 0;
  ChannelPair p(no_batch);
  ASSERT_TRUE(p.a->send(to_bytes("one")));
  ASSERT_TRUE(p.a->send(to_bytes("two")));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 2u);
  // Frame 1 deferred its ack; frame 2 hit the every-2nd rule: one ack
  // covered both, sent without waiting for the timer.
  EXPECT_EQ(p.b->stats().acks_sent, 1u);
  EXPECT_EQ(p.b->stats().acks_delayed, 1u);
}

TEST(ReliableChannelDelayedAck, DuplicateBurstYieldsSingleAck) {
  ChannelPair p;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.a->send(to_bytes("m" + std::to_string(i))));
  }
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 4u);

  // A go-back-N window retransmitted after our acks were lost: four stale
  // DATA frames land back to back. Legacy behaviour answered each with an
  // immediate ack (a window-sized ack burst); now they share one delayed
  // ack.
  std::uint64_t acks_before = p.b->stats().acks_sent;
  std::uint64_t dups_before = p.b->stats().duplicates_dropped;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    Packet stale;
    stale.type = PacketType::kData;
    stale.session = 111;
    stale.src = p.id_a;
    stale.dst = p.id_b;
    stale.seq = seq;
    stale.payload = to_bytes("m" + std::to_string(seq));
    p.b->on_packet(stale);
  }
  EXPECT_EQ(p.b->stats().acks_sent, acks_before);  // nothing yet
  p.ex.run();
  EXPECT_EQ(p.b->stats().acks_sent, acks_before + 1);
  EXPECT_EQ(p.b->stats().duplicates_dropped, dups_before + 4);
  EXPECT_EQ(p.at_b.size(), 4u);  // and nothing redelivered
}

TEST(ReliableChannelDelayedAck, OutOfOrderFrameAckedImmediately) {
  ChannelPair p;
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0, {to_bytes("m0")}));
  std::uint64_t acks_before = p.b->stats().acks_sent;
  Packet ahead;
  ahead.type = PacketType::kData;
  ahead.session = 111;
  ahead.src = p.id_a;
  ahead.dst = p.id_b;
  ahead.seq = 3;
  ahead.payload = to_bytes("m3");
  p.b->on_packet(ahead);
  // No timer wait: the duplicate cumulative ack goes out synchronously so
  // the sender's fast-retransmit clock keeps ticking.
  EXPECT_EQ(p.b->stats().acks_sent, acks_before + 1);
}

TEST(ReliableChannelDelayedAck, PiggybackedAckCancelsPendingDelayedAck) {
  ChannelPair p;
  int explicit_acks = 0;
  p.tap_from_b = [&](const Packet& pk) {
    if (pk.type == PacketType::kAck) ++explicit_acks;
  };
  ASSERT_TRUE(p.a->send(to_bytes("ping")));
  // b receives at +1 ms and owes an ack; its own reverse DATA goes out
  // before the 2 ms ack timer fires and carries the cumulative ack.
  p.ex.schedule_after(milliseconds(1), [&] {
    ASSERT_TRUE(p.b->send(to_bytes("pong")));
  });
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 1u);
  ASSERT_EQ(p.at_a.size(), 1u);
  EXPECT_EQ(explicit_acks, 0);  // piggyback replaced the explicit ack
  EXPECT_EQ(p.a->in_flight(), 0u);
}

// ---- Receive-side reorder-buffer overflow (max_reorder hit).

TEST(ReliableChannelReorder, OverflowDropsExcessAndStreamRecovers) {
  ReliableChannelConfig cfg;
  cfg.max_reorder = 2;
  ChannelPair p(cfg);
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0, {to_bytes("m0")}));
  ASSERT_EQ(p.at_b.size(), 1u);

  // Three frames beyond the hole at seq 1: only two fit the buffer.
  for (std::uint32_t seq : {5u, 6u, 7u}) {
    Packet ahead;
    ahead.type = PacketType::kData;
    ahead.session = 111;
    ahead.src = p.id_a;
    ahead.dst = p.id_b;
    ahead.seq = seq;
    ahead.payload = to_bytes("m" + std::to_string(seq));
    p.b->on_packet(ahead);
  }
  EXPECT_EQ(p.b->stats().out_of_order_buffered, 2u);
  EXPECT_GE(p.b->stats().duplicates_dropped, 1u);  // m7 had no buffer slot

  // The sender (go-back-N) would replay from the cumulative ack point:
  // filling seqs 1..4 drains the two buffered frames; m7 must arrive again.
  for (std::uint32_t seq = 1; seq <= 4; ++seq) {
    p.b->on_packet(
        forge_batched(p.id_a, p.id_b, 111, seq,
                      {to_bytes("m" + std::to_string(seq))}));
  }
  ASSERT_EQ(p.at_b.size(), 7u);  // m0..m6
  for (int i = 0; i < 7; ++i) EXPECT_EQ(p.at_b[i], "m" + std::to_string(i));
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 7, {to_bytes("m7")}));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 8u);
  EXPECT_EQ(p.at_b[7], "m7");
}

TEST(ReliableChannelReorder, OverflowingBatchBuffersPartially) {
  ReliableChannelConfig cfg;
  cfg.max_reorder = 2;
  ChannelPair p(cfg);
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 0, {to_bytes("m0")}));
  // One out-of-order batch of three: two subs fit, the third is dropped.
  p.b->on_packet(forge_batched(
      p.id_a, p.id_b, 111, 2,
      {to_bytes("m2"), to_bytes("m3"), to_bytes("m4")}));
  EXPECT_EQ(p.b->stats().out_of_order_buffered, 2u);
  EXPECT_GE(p.b->stats().duplicates_dropped, 1u);
  p.b->on_packet(forge_batched(p.id_a, p.id_b, 111, 1, {to_bytes("m1")}));
  p.ex.run();
  ASSERT_EQ(p.at_b.size(), 4u);  // m0..m3; m4 awaits retransmission
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p.at_b[i], "m" + std::to_string(i));
}

}  // namespace
}  // namespace amuse

namespace amuse {
namespace {

// ---- Control placement: under every mix of sends, pumps, acks, loss and
// sheds, messages first go on the wire in the order a reference queue
// gives (data appends; control goes after the queued control, never inside
// a fragment train); and the receiver still gets control in FIFO order,
// data in FIFO order (less what was shed) and every fragment train whole.

std::string tagged(char kind, int n, std::size_t size) {
  std::string m = std::string(1, kind) + std::to_string(n) + ":";
  while (m.size() < size) m.push_back(static_cast<char>('a' + m.size() % 26));
  return m;
}

// The tag ("c12:", "d7:") a message starts with.
std::string tag_of(std::string_view m) {
  return std::string(m.substr(0, m.find(':') + 1));
}

// The documented placement rules, applied to whole messages not yet on the
// wire. A message leaves the model when its first piece is first sent, so
// a partly sent fragment train is never in it and nothing can land inside.
struct QueueModel {
  std::deque<std::string> queued;  // tags, in wire order

  void send(const std::string& tag) {
    if (tag[0] == 'd') {
      queued.push_back(tag);
      return;
    }
    auto after_control = std::find_if(
        queued.begin(), queued.end(),
        [](const std::string& t) { return t[0] != 'c'; });
    queued.insert(after_control, tag);
  }
};

TEST(ReliableChannelControlOrder, FirstTransmissionsMatchQueueModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ReliableChannelConfig cfg;
    cfg.max_fragment_payload = 24;
    cfg.window = 1 + rng.bounded(4);
    cfg.rto_initial = milliseconds(30);
    if (seed % 2 == 0) cfg.max_queue_bytes = 600;  // sheds data
    ChannelPair p(cfg);
    p.drop_from_a = [&rng](const Packet& pk) {
      return pk.type == PacketType::kData && rng.chance(0.2);
    };
    QueueModel model;
    std::string sending;  // tag of the send in progress
    std::size_t shed = 0;
    p.a->set_on_shed([&](BytesView m) {
      std::string tag = tag_of(to_string(m));
      if (tag == sending) return;  // refused on entry: the send fails
      auto it = std::find(model.queued.begin(), model.queued.end(), tag);
      ASSERT_NE(it, model.queued.end()) << "seed=" << seed << " shed " << tag;
      EXPECT_EQ(tag[0], 'd') << "seed=" << seed;
      model.queued.erase(it);
      ++shed;
    });
    // Every sub-message at a seq not sent before is a first transmission;
    // one that follows a message's last piece starts the next message.
    std::uint32_t next_seq = 0;
    bool at_message_start = true;
    std::size_t started = 0;
    p.tap_from_a = [&](const Packet& pk) {
      if (pk.type != PacketType::kData) return;
      std::vector<BytesView> subs{pk.payload.view()};
      if ((pk.flags & kFlagBatched) != 0) {
        subs = *Packet::split_batch(pk.payload);
      }
      for (std::size_t i = 0; i < subs.size(); ++i) {
        std::uint32_t seq = pk.seq + static_cast<std::uint32_t>(i);
        ASSERT_LE(seq, next_seq) << "seed=" << seed;
        if (seq < next_seq) continue;
        ++next_seq;
        if (at_message_start) {
          ASSERT_FALSE(model.queued.empty()) << "seed=" << seed;
          EXPECT_EQ(tag_of(to_string(subs[i])), model.queued.front())
              << "seed=" << seed << " seq=" << seq;
          model.queued.pop_front();
          ++started;
        }
        at_message_start = (pk.flags & kFlagMoreFragments) == 0;
      }
    };
    std::vector<std::string> control;
    std::vector<std::string> data;
    for (int op = 0; op < 400; ++op) {
      double dice = rng.uniform();
      if (dice < 0.45) {
        std::string m = tagged('d', op, 1 + rng.bounded(80));
        sending = tag_of(m);
        // The model takes the message first: the send may put it on the
        // wire before it returns.
        model.send(sending);
        if (p.a->send(to_bytes(m))) {
          data.push_back(m);
        } else {
          std::erase(model.queued, sending);
        }
      } else if (dice < 0.7) {
        std::string m = tagged('c', op, 1 + rng.bounded(60));
        sending = tag_of(m);
        model.send(sending);
        ASSERT_TRUE(p.a->send(to_bytes(m), MsgClass::kControl));
        control.push_back(m);
      } else {
        p.ex.run_for(microseconds(100 + rng.bounded(20000)));
      }
      // A failed channel lets messages into its window unsent, which the
      // model, driven by the wire, would not see.
      ASSERT_EQ(p.failures, 0) << "seed=" << seed;
    }
    p.drop_from_a = nullptr;
    p.ex.run_for(seconds(60));
    p.ex.run();
    EXPECT_TRUE(model.queued.empty()) << "seed=" << seed;
    EXPECT_EQ(started + shed, control.size() + data.size()) << "seed=" << seed;

    std::vector<std::string> got_control;
    std::vector<std::string> got_data;
    for (const std::string& m : p.at_b) {
      (m[0] == 'c' ? got_control : got_data).push_back(m);
    }
    EXPECT_EQ(got_control, control) << "seed=" << seed;
    // Shedding drops whole data messages, so what arrives is an in-order
    // subsequence of what was accepted, each message intact.
    auto next = data.begin();
    for (const std::string& m : got_data) {
      next = std::find(next, data.end(), m);
      ASSERT_NE(next, data.end()) << "seed=" << seed << " got " << m;
      ++next;
    }
    if (seed % 2 == 1) {
      EXPECT_EQ(got_data, data) << "seed=" << seed;
    }
  }
}


// The one egress path: every round reaches the sink as one call, in wire
// order — a pump round's frames together, and an ACK, a fast retransmit
// and a single-frame round each alone. frame_bursts counts only the calls
// carrying two or more frames.
TEST(ReliableChannel, EveryRoundReachesTheSinkAsOneCall) {
  SimExecutor ex;
  ServiceId self = ServiceId::from_addr_port(0x0A000001, 1000);
  ServiceId peer = ServiceId::from_addr_port(0x0A000002, 2000);
  ReliableChannelConfig cfg;
  cfg.max_fragment_payload = 8;  // a 30-byte message is a 4-frame train
  cfg.ack_delay = Duration{};    // ack every DATA frame at once
  std::vector<std::vector<Packet>> calls;
  ReliableChannel ch(
      ex, self, peer, /*session=*/5, cfg,
      [&](std::span<const Transport::Datagram> round) {
        std::vector<Packet>& call = calls.emplace_back();
        for (const Transport::Datagram& d : round) {
          EXPECT_EQ(d.dst, peer);
          std::optional<Packet> p = Packet::decode(d.data);
          ASSERT_TRUE(p.has_value());
          call.push_back(*p);
        }
      },
      [](BytesView) {});
  auto from_peer = [&](PacketType type, std::uint32_t seq) {
    Packet p;
    p.type = type;
    p.session = 9;
    p.src = peer;
    p.dst = self;
    p.seq = seq;
    p.ack = 0;  // never acks anything of ours
    if (type == PacketType::kData) p.payload = to_bytes("hello");
    ch.on_packet(p);
  };

  // A single-frame round.
  ASSERT_TRUE(ch.send(to_bytes("hi")));
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 1u);
  EXPECT_EQ(calls[0][0].seq, 0u);
  EXPECT_EQ(ch.stats().frame_bursts, 0u);

  // A pump round of four fragments: one call, frames in seq order.
  ASSERT_TRUE(ch.send(to_bytes(std::string(30, 'f'))));
  ASSERT_EQ(calls.size(), 2u);
  ASSERT_EQ(calls[1].size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(calls[1][i].type, PacketType::kData);
    EXPECT_EQ(calls[1][i].seq, 1 + i);
  }
  EXPECT_EQ(ch.stats().frame_bursts, 1u);

  // Three duplicate acks: the third fast-retransmits the head, alone.
  for (int i = 0; i < 3; ++i) from_peer(PacketType::kAck, 0);
  ASSERT_EQ(ch.stats().fast_retransmits, 1u);
  ASSERT_EQ(calls.size(), 3u);
  ASSERT_EQ(calls[2].size(), 1u);
  EXPECT_EQ(calls[2][0].type, PacketType::kData);
  EXPECT_EQ(calls[2][0].seq, 0u);

  // Peer DATA is acked at once: an ACK alone.
  from_peer(PacketType::kData, 0);
  ASSERT_EQ(calls.size(), 4u);
  ASSERT_EQ(calls[3].size(), 1u);
  EXPECT_EQ(calls[3][0].type, PacketType::kAck);
  EXPECT_EQ(calls[3][0].ack, 1u);

  // A timeout retransmits the whole window as one round.
  ex.run_for(cfg.rto_initial);
  ASSERT_EQ(calls.size(), 5u);
  EXPECT_EQ(calls[4].size(), 5u);
  EXPECT_EQ(ch.stats().frame_bursts, 2u);
  std::uint64_t frames = 0;
  for (const auto& call : calls) frames += call.size();
  EXPECT_EQ(ch.stats().datagrams_sent, frames);
}

}  // namespace
}  // namespace amuse
