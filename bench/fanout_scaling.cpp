// Ablation A1 (§VI future work): "variation in delays incurred depending on
// message size or number of recipients".
//
// One publisher, N subscribers (all interested in every event), payload
// fixed at 512 B. The bus delivers to each member's proxy in turn, so the
// PDA's per-packet send cost makes mean delivery delay grow linearly with
// fan-out — quantifying how far a single SMC can scale before delivery
// latency violates alarm deadlines.
//
// The encode columns expose the zero-copy event spine: the bus serialises
// each published event exactly once and shares the bytes across the whole
// fan-out, so `enc` stays equal to the event count while `reuse` grows with
// the number of recipients.
//
// `--smoke` runs a tiny matrix and exits non-zero if the encode-once
// invariant (encodes == published) is violated; CI runs it as a ctest.
#include <cstring>

#include "bench_util.hpp"

namespace amuse::bench {
namespace {

struct FanoutResult {
  Stats first_ms;  // delay until the first subscriber got the event
  Stats last_ms;   // delay until the last subscriber got it
  EventBus::Stats bus;
  double dgrams_per_delivery = 0;  // network datagrams per event delivered
};

FanoutResult measure(BusEngine engine, int subscribers, int events) {
  Testbed tb(engine,
             /*seed=*/static_cast<std::uint64_t>(subscribers) * 31 + 5);
  auto pub = tb.laptop_client("bench.pub");
  std::vector<std::unique_ptr<BusClient>> subs;
  for (int i = 0; i < subscribers; ++i) {
    subs.push_back(tb.laptop_client("bench.sub" + std::to_string(i)));
  }

  std::vector<double> first_ms;
  std::vector<double> last_ms;
  std::uint64_t delivered = 0;
  int remaining = 0;
  for (auto& s : subs) {
    s->subscribe(Filter::for_type("perf.payload"), [&](const Event& e) {
      double ms = to_millis(tb.ex.now() - e.timestamp());
      ++delivered;
      if (remaining == subscribers) first_ms.push_back(ms);
      if (--remaining == 0) last_ms.push_back(ms);
    });
  }
  tb.ex.run();

  // Count wire traffic for the measured events only (the join/subscribe
  // exchange above is bounded setup, not steady-state cost).
  tb.net.reset_stats();
  for (int i = 0; i < events; ++i) {
    tb.ex.schedule_at(TimePoint(seconds(5 + i * 5)), [&] {
      remaining = subscribers;
      pub->publish(payload_event(512));
    });
  }
  tb.ex.run();
  FanoutResult out{summarize(std::move(first_ms)),
                   summarize(std::move(last_ms)), tb.bus->stats(), 0};
  if (delivered > 0) {
    out.dgrams_per_delivery =
        static_cast<double>(tb.net.stats().datagrams_sent) /
        static_cast<double>(delivered);
  }
  return out;
}

/// Encode-once invariant: every published event is serialised exactly once
/// no matter how many members the fan-out reaches. With a simulated host
/// the body is materialised at cost-model time, so every proxy delivery is
/// a reuse; without one the first delivery encodes and the rest reuse.
bool encode_invariant_holds(const FanoutResult& r, int events) {
  return r.bus.published == static_cast<std::uint64_t>(events) &&
         r.bus.encodes == r.bus.published &&
         r.bus.encode_reuses >= r.bus.deliveries - r.bus.encodes &&
         r.bus.encode_reuses <= r.bus.deliveries;
}

int run_smoke() {
  int violations = 0;
  constexpr int kEvents = 5;
  std::printf("fanout smoke: encode-once invariant, %d events per point\n",
              kEvents);
  for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
    for (int n : {1, 4, 8}) {
      FanoutResult r = measure(engine, n, kEvents);
      bool ok = encode_invariant_holds(r, kEvents);
      std::printf(
          "  %-11s subs=%-2d published=%llu encodes=%llu reuses=%llu "
          "deliveries=%llu %s\n",
          to_string(engine), n,
          static_cast<unsigned long long>(r.bus.published),
          static_cast<unsigned long long>(r.bus.encodes),
          static_cast<unsigned long long>(r.bus.encode_reuses),
          static_cast<unsigned long long>(r.bus.deliveries),
          ok ? "ok" : "VIOLATION");
      if (!ok) ++violations;
    }
  }
  if (violations != 0) {
    std::fprintf(stderr,
                 "fanout smoke: %d point(s) violated encodes == published\n",
                 violations);
    return 1;
  }
  std::printf("fanout smoke: all points hold encodes == published\n");
  return 0;
}

int run_full(const char* json_path) {
  std::printf("Ablation A1: delivery delay vs number of recipients "
              "(512 B payload)\n");
  print_header(
      "delay to first / last recipient (ms), 20 events per point; enc = "
      "bodies serialised, reuse = cached bodies reused; dg_dlv = network "
      "datagrams per event delivered (c-based run)",
      "subs  siena_first  siena_last  cbased_first  cbased_last   enc  "
      "reuse  dg_dlv");
  struct Row {
    int subs;
    FanoutResult siena, cbased;
  };
  std::vector<Row> rows;
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    Row r{n, measure(BusEngine::kSienaBased, n, 20),
          measure(BusEngine::kCBased, n, 20)};
    std::printf("%4d  %11.1f  %10.1f  %12.1f  %11.1f  %4llu  %5llu  %6.2f\n",
                n, r.siena.first_ms.mean, r.siena.last_ms.mean,
                r.cbased.first_ms.mean, r.cbased.last_ms.mean,
                static_cast<unsigned long long>(r.cbased.bus.encodes),
                static_cast<unsigned long long>(r.cbased.bus.encode_reuses),
                r.cbased.dgrams_per_delivery);
    rows.push_back(r);
  }
  std::printf("\nexpected shape: last-recipient delay grows ~linearly with "
              "fan-out (PDA send cost per member);\nfirst-recipient delay "
              "stays near the 1-recipient response time; enc stays at the "
              "event count\n(encode-once) while reuse grows with fan-out; "
              "dg_dlv falls toward ~2/fan-out + 2 as acks amortise\n");

  return write_json(json_path, [&](std::FILE* f) {
    std::fprintf(f, "{\n  \"bench\": \"fanout_scaling\",\n"
                    "  \"unit\": \"ms\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"subscribers\": %d, \"siena_first_ms\": %.2f, "
          "\"siena_last_ms\": %.2f, \"cbased_first_ms\": %.2f, "
          "\"cbased_last_ms\": %.2f, \"cbased_dgrams_per_delivery\": "
          "%.3f}%s\n",
          r.subs, r.siena.first_ms.mean, r.siena.last_ms.mean,
          r.cbased.first_ms.mean, r.cbased.last_ms.mean,
          r.cbased.dgrams_per_delivery, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  });
}

}  // namespace
}  // namespace amuse::bench

int main(int argc, char** argv) {
  using namespace amuse::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return smoke ? run_smoke() : run_full(json_path_arg(argc, argv));
}
