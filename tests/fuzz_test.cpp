// Randomised robustness and determinism tests:
//  - codec fuzz: random events/filters round-trip bit-exactly; mutated
//    encodings either decode cleanly or throw DecodeError — never crash;
//  - the Siena text translation round-trips random typed content;
//  - simulation determinism: identical seeds produce identical traces.
#include <gtest/gtest.h>

#include "bus/messages.hpp"
#include "common/rng.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "pubsub/codec.hpp"
#include "pubsub/siena_translation.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "sim/sim_executor.hpp"
#include "wire/packet.hpp"

namespace amuse {
namespace {

Value random_value(Rng& rng) {
  switch (rng.bounded(5)) {
    case 0:
      return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 1:
      return Value(rng.uniform(-1e6, 1e6));
    case 2:
      return Value(rng.chance(0.5));
    case 3: {
      std::string s;
      std::size_t n = rng.bounded(40);
      for (std::size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(32 + rng.bounded(95)));
      }
      return Value(std::move(s));
    }
    default: {
      Bytes b(rng.bounded(64));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.bounded(256));
      return Value(std::move(b));
    }
  }
}

Event random_event(Rng& rng) {
  Event e;
  std::size_t n = rng.bounded(8);
  for (std::size_t i = 0; i < n; ++i) {
    e.set("attr" + std::to_string(rng.bounded(12)), random_value(rng));
  }
  e.set_publisher(ServiceId(rng.next_u64()));
  e.set_publisher_seq(rng.next_u64());
  e.set_timestamp(TimePoint(Duration(
      static_cast<std::int64_t>(rng.next_u64() >> 1))));
  return e;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomEventsRoundTripExactly) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    Event e = random_event(rng);
    Event back = decode_event(encode_event(e));
    EXPECT_EQ(back, e);
    EXPECT_EQ(back.publisher(), e.publisher());
    EXPECT_EQ(back.publisher_seq(), e.publisher_seq());
    EXPECT_EQ(back.timestamp(), e.timestamp());
  }
}

TEST_P(CodecFuzz, MutatedEncodingsNeverCrash) {
  Rng rng(GetParam() ^ 0xDEAD);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes wire = encode_event(random_event(rng));
    // Flip 1-4 random bytes.
    int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips && !wire.empty(); ++f) {
      wire[rng.bounded(static_cast<std::uint32_t>(wire.size()))] ^=
          static_cast<std::uint8_t>(1 + rng.bounded(255));
    }
    try {
      Event e = decode_event(wire);
      (void)e.to_string();  // whatever decoded must be safely usable
      ++decoded;
    } catch (const DecodeError&) {
      ++rejected;
    } catch (const std::length_error&) {
      ++rejected;  // a corrupted length prefix may exceed blob limits
    }
  }
  EXPECT_EQ(decoded + rejected, 200);
}

TEST_P(CodecFuzz, TruncatedEncodingsNeverCrash) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 100; ++i) {
    Bytes wire = encode_event(random_event(rng));
    std::size_t cut = rng.bounded(static_cast<std::uint32_t>(wire.size() + 1));
    try {
      (void)decode_event(BytesView(wire.data(), cut));
    } catch (const DecodeError&) {
      // expected for most cuts
    }
  }
}

TEST_P(CodecFuzz, SienaTranslationRoundTripsRandomEvents) {
  Rng rng(GetParam() ^ 0x51E4A);
  for (int i = 0; i < 150; ++i) {
    Event e = random_event(rng);
    EXPECT_EQ(siena_round_trip(e), e);
  }
}

TEST_P(CodecFuzz, BusMessagesSurviveMutation) {
  Rng rng(GetParam() ^ 0xB05);
  for (int i = 0; i < 150; ++i) {
    // Unstamped publishes, and stamped publishes/deliveries: a flipped bit
    // can land in the origin header or turn the flag on or off.
    Event e = random_event(rng);
    if (i % 3 != 0) {
      e.set_origin(Origin{ServiceId(1 + rng.bounded(1000)), rng.bounded(4),
                          rng.bounded(100000)});
    }
    BusMessage m = i % 3 == 2 ? BusMessage::deliver(std::move(e), {1, 2})
                              : BusMessage::publish(std::move(e));
    Bytes wire = m.encode();
    if (m.event->origin().stamped()) {
      BusMessage back = BusMessage::decode(wire);
      EXPECT_EQ(back.event->origin(), m.event->origin());
    }
    wire[rng.bounded(static_cast<std::uint32_t>(wire.size()))] ^= 0x40;
    try {
      (void)BusMessage::decode(wire);
    } catch (const DecodeError&) {
    } catch (const std::length_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1001, 2002, 3003, 4004));

// ---- Simulation determinism: the bedrock of reproducible experiments.

struct TraceRecorder {
  std::vector<std::string> lines;
};

std::vector<std::string> run_smc_trace(std::uint64_t seed) {
  SimExecutor ex;
  SimNetwork net(ex, seed);
  LinkModel link = profiles::usb_ip_link();
  link.loss = 0.1;
  net.set_default_link(link);
  SimHost& core = net.add_host("core", profiles::ideal_host());
  SimHost& dev = net.add_host("dev", profiles::ideal_host());

  SmcCellConfig cfg;
  cfg.name = "det";
  cfg.pre_shared_key = to_bytes("k");
  cfg.discovery.beacon_interval = milliseconds(300);
  cfg.discovery.heartbeat_interval = milliseconds(300);
  SelfManagedCell cell(ex, net.create_endpoint(core),
                       net.create_endpoint(core), cfg);
  cell.start();

  SmcMemberConfig mc;
  mc.agent.cell_name = "det";
  mc.agent.pre_shared_key = to_bytes("k");
  SmcMember pub(ex, net.create_endpoint(dev), mc);
  SmcMember sub(ex, net.create_endpoint(dev), mc);

  std::vector<std::string> trace;
  sub.subscribe(Filter::for_type("t"), [&](const Event& e) {
    trace.push_back(std::to_string(ex.now().time_since_epoch().count()) +
                    ":" + std::to_string(e.get_int("n")));
  });
  pub.start();
  sub.start();
  for (int i = 0; i < 30; ++i) {
    ex.schedule_at(TimePoint(milliseconds(3000 + i * 200)), [&, i] {
      pub.publish(Event("t", {{"n", i}}));
    });
  }
  ex.run_for(seconds(30));
  trace.push_back("published=" +
                  std::to_string(cell.bus().stats().published));
  trace.push_back("datagrams=" +
                  std::to_string(net.stats().datagrams_sent));
  trace.push_back("dropped=" + std::to_string(net.stats().dropped_loss));
  return trace;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalTraces) {
  auto a = run_smc_trace(777);
  auto b = run_smc_trace(777);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 30u);  // the run actually did something
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto a = run_smc_trace(777);
  auto b = run_smc_trace(778);
  EXPECT_NE(a, b);  // loss pattern and jitter differ
}

}  // namespace
}  // namespace amuse
