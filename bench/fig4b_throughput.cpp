// Figure 4(b): "Variation in throughput against data sizes."
//
// A publisher saturates the bus with back-to-back events of a fixed payload
// size; we measure payload bytes delivered to the subscriber per second of
// simulated time. Although the raw link sustains ~575 KB/s (§V), both buses
// deliver only a few KB/s — the PDA's per-packet software costs dominate —
// and the C-based bus sustains roughly 2× the Siena-based throughput, with
// the advantage growing at larger payloads.
//
// Paper anchors (read off Figure 4(b)): C-based ≈20-22 KB/s at 3000 B,
// Siena-based ≈8-9 KB/s; both curves rise with payload (per-packet overhead
// amortises) and are concave. The `legacy` column reproduces that wire
// behaviour (one frame per message, one ack per DATA frame); the headline
// columns run with the reliable channel's frame coalescing + delayed acks,
// which amortise the per-datagram cost the paper identifies as the
// bottleneck — `dgrams_ev` is the measured datagrams per delivered event.
//
// Usage: fig4b_throughput [--json PATH]   (also prints the table)

#include "bench_util.hpp"

namespace amuse::bench {
namespace {

struct Throughput {
  double kbps = 0;
  double dgrams_per_event = 0;
};

Throughput measure_throughput(BusEngine engine, std::size_t payload,
                              bool coalesce) {
  Testbed tb(engine, /*seed=*/payload + 99, profiles::usb_ip_link(),
             coalesce);
  auto pub = tb.laptop_client("bench.pub");
  auto sub = tb.laptop_client("bench.sub");

  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_events = 0;
  const Duration warmup = seconds(10);
  const Duration window = seconds(120);
  sub->subscribe(Filter::for_type("perf.payload"), [&](const Event& e) {
    if (tb.ex.now().time_since_epoch() >= warmup) {
      delivered_bytes += e.get("data")->as_bytes().size();
      ++delivered_events;
    }
  });
  tb.ex.run();

  // Count only the steady-state window's wire traffic.
  tb.ex.schedule_at(TimePoint(warmup), [&] { tb.net.reset_stats(); });

  // Saturating source: keep the client's reliable-channel backlog topped up
  // past the send window so the window pipelines as fast as the bus
  // acknowledges and the coalescer always has a queue to pack from.
  std::function<void()> pump = [&] {
    while (pub->backlog() < 12) {
      pub->publish(payload_event(payload));
    }
    tb.ex.schedule_after(milliseconds(20), pump);
  };
  pump();
  tb.ex.run_until(TimePoint(warmup + window));

  Throughput out;
  out.kbps = static_cast<double>(delivered_bytes) / 1024.0 /
             to_seconds(window);
  if (delivered_events > 0) {
    out.dgrams_per_event =
        static_cast<double>(tb.net.stats().datagrams_sent) /
        static_cast<double>(delivered_events);
  }
  return out;
}

}  // namespace
}  // namespace amuse::bench

int main(int argc, char** argv) {
  using namespace amuse;
  using namespace amuse::bench;

  const char* json_path = json_path_arg(argc, argv);

  std::printf("Figure 4(b): throughput vs payload size\n");
  std::printf("(saturating publisher; payload KB delivered per second of "
              "simulated time; raw link capacity ~575 KB/s;\n"
              "legacy = frame coalescing + delayed acks off — the paper's "
              "wire behaviour; dgrams_ev = datagrams per delivered event)\n");
  print_header("throughput (KB/s), 120 s window after 10 s warm-up",
               "payload_B  siena_KBps  cbased_KBps  speedup  legacy_KBps  "
               "coalesce_gain  dgrams_ev");

  struct Row {
    std::size_t payload;
    Throughput siena, cbased, legacy;
  };
  std::vector<Row> rows;
  for (std::size_t payload = 250; payload <= 3000; payload += 250) {
    Row r{payload,
          measure_throughput(BusEngine::kSienaBased, payload, true),
          measure_throughput(BusEngine::kCBased, payload, true),
          measure_throughput(BusEngine::kCBased, payload, false)};
    std::printf("%9zu  %10.2f  %11.2f  %6.2fx  %11.2f  %12.2fx  %9.2f\n",
                r.payload, r.siena.kbps, r.cbased.kbps,
                r.cbased.kbps / r.siena.kbps, r.legacy.kbps,
                r.cbased.kbps / r.legacy.kbps, r.cbased.dgrams_per_event);
    rows.push_back(r);
  }
  std::printf(
      "\npaper anchors (legacy wire behaviour): c-based ~20-22 KB/s @3000B, "
      "siena ~8-9 KB/s @3000B; both << 575 KB/s link capacity\n");

  return write_json(json_path, [&](std::FILE* f) {
    std::fprintf(f, "{\n  \"bench\": \"fig4b_throughput\",\n"
                    "  \"unit\": \"KB/s\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"payload_b\": %zu, \"siena_kbps\": %.2f, "
          "\"cbased_kbps\": %.2f, \"cbased_legacy_kbps\": %.2f, "
          "\"cbased_dgrams_per_event\": %.3f, "
          "\"legacy_dgrams_per_event\": %.3f}%s\n",
          r.payload, r.siena.kbps, r.cbased.kbps, r.legacy.kbps,
          r.cbased.dgrams_per_event, r.legacy.dgrams_per_event,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  });
}
