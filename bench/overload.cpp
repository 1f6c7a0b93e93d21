// Overload robustness benchmark (DESIGN.md §9): bounded persistent delivery
// under a slow consumer.
//
// One publisher floods N subscribers through the bus while one subscriber's
// inbound link is blackholed (its own traffic still flows, so it stays a
// member). The per-member delivery budget must keep the stalled proxy's
// retained bytes bounded, every dropped event must be accounted through the
// shed tap, the publisher must see at least one kFlowControl backpressure
// signal, and the healthy subscribers must receive every event in FIFO
// order at full throughput — overload at one member never degrades the
// others ("accounted, never silent").
//
// `--smoke` runs a small matrix and exits non-zero if any invariant fails;
// CI runs it as ctest `bench.overload_smoke` (labels bench;overload).
// `--json PATH` writes the headline run's numbers for the bench artifact.
#include <cstring>
#include <map>

#include "bench_util.hpp"
#include "proxy/forwarding_proxy.hpp"

namespace amuse::bench {
namespace {

struct OverloadParams {
  int events = 1000;
  std::size_t payload = 512;          // opaque payload bytes per event
  std::size_t budget = 64 * 1024;     // per-member retained-byte budget
  std::size_t high_water = 48 * 1024;
  std::size_t low_water = 16 * 1024;
  Duration pace = milliseconds(50);   // publish spacing
  int healthy = 2;                    // healthy subscribers
};

struct OverloadResult {
  std::uint64_t published = 0;
  std::uint64_t peak_retained = 0;     // stalled channel high-water (bytes)
  std::uint64_t sheds_total = 0;       // bus-wide accounted drops
  std::uint64_t sheds_stalled = 0;     // ... attributed to the stalled member
  std::uint64_t delivered_stalled = 0; // events the stalled member still got
  std::uint64_t pressure_signals = 0;  // kFlowControl seen by the publisher
  std::uint64_t soft_fails = 0;        // publish() advisory-false returns
  std::size_t retained_after = 0;      // stalled channel bytes at quiescence
  bool healthy_fifo_complete = false;  // every healthy sub: all events, FIFO
  double healthy_eps = 0;              // healthy delivery rate (events/s)
  std::vector<std::string> violations;
};

void check(OverloadResult& r, bool ok, const std::string& what) {
  if (!ok) r.violations.push_back(what);
}

OverloadResult measure(BusEngine engine, const OverloadParams& p) {
  SimExecutor ex;
  SimNetwork net(ex, 0x0ade'0806 + static_cast<std::uint64_t>(p.events));
  net.set_default_link(profiles::usb_ip_link());
  SimHost& core = net.add_host("core", profiles::pda_ipaq_hx4700());

  EventBusConfig cfg;
  cfg.engine = engine;
  cfg.host = &core;
  cfg.channel.rto_initial = seconds(2);
  cfg.channel.max_queue_bytes = p.budget;
  cfg.channel.flow_high_water = p.high_water;
  cfg.channel.flow_low_water = p.low_water;
  EventBus bus(ex, net.create_endpoint(core), cfg);

  // Every member on its own host so exactly one core→member link stalls.
  auto make_client = [&](const std::string& name) {
    SimHost& h = net.add_host(name, profiles::laptop_p3_1200());
    auto transport = net.create_endpoint(h);
    bus.add_member(MemberInfo{transport->local_id(), name, "service"});
    BusClientConfig ccfg;
    ccfg.channel.rto_initial = seconds(2);
    return std::pair<std::unique_ptr<BusClient>, SimHost*>(
        std::make_unique<BusClient>(ex, std::move(transport), bus.bus_id(),
                                    ccfg),
        &h);
  };

  auto [pub, pub_host] = make_client("over.pub");
  auto [stalled, stalled_host] = make_client("over.stall");
  std::vector<std::unique_ptr<BusClient>> healthy;
  std::vector<std::vector<int>> healthy_seen(
      static_cast<std::size_t>(p.healthy));
  std::vector<double> healthy_at;  // sim seconds of each healthy delivery
  for (int i = 0; i < p.healthy; ++i) {
    auto [c, h] = make_client("over.ok" + std::to_string(i));
    c->subscribe(Filter::for_type("perf.payload"),
                 [&, i](const Event& e) {
                   healthy_seen[static_cast<std::size_t>(i)].push_back(
                       static_cast<int>(e.get_int("n", -1)));
                   healthy_at.push_back(to_millis(ex.now().time_since_epoch()) /
                                        1e3);
                 });
    healthy.push_back(std::move(c));
  }
  std::uint64_t delivered_stalled = 0;
  stalled->subscribe(Filter::for_type("perf.payload"),
                     [&](const Event&) { ++delivered_stalled; });

  std::uint64_t pressure_signals = 0;
  pub->set_on_pressure([&](bool on) {
    if (on) ++pressure_signals;
  });

  std::map<std::uint64_t, std::uint64_t> sheds_by_member;
  BusObserver obs;
  obs.on_shed = [&](ServiceId member, const Event&) {
    ++sheds_by_member[member.raw()];
  };
  bus.set_observer(obs);
  ex.run();  // joins + subscriptions settle

  // Blackhole core→stalled only: the member's own frames (acks, its initial
  // subscribe) still reach the bus, so it remains a member throughout.
  const ServiceId stalled_id = stalled->id();
  LinkModel dead = net.default_link();
  dead.loss = 1.0;
  net.update_link_oneway(core, *stalled_host, dead);

  // The burst: paced so the healthy subscribers can drain, but relentless —
  // the publisher keeps publishing through pressure (the advisory false
  // return is counted, not obeyed), so the stalled proxy must shed.
  OverloadResult r;
  TimePoint t0 = ex.now() + seconds(1);
  for (int i = 0; i < p.events; ++i) {
    ex.schedule_at(t0 + p.pace * i, [&, i] {
      Event e = payload_event(p.payload);
      e.set("n", i);
      if (!pub->publish(std::move(e))) ++r.soft_fails;
      ++r.published;
    });
  }
  ex.run();

  auto* proxy = static_cast<ForwardingProxy*>(bus.proxy_for(stalled_id));
  r.peak_retained = proxy->channel_stats().peak_retained_bytes;

  // Heal and drain. The stalled channel exhausted its retries during the
  // burst and paused; with no discovery service in the loop the benchmark
  // plays its role and pokes the channel once the link is back.
  net.update_link_oneway(core, *stalled_host, net.default_link());
  proxy->resume();
  ex.run();

  r.sheds_total = bus.stats().events_shed;
  r.sheds_stalled = sheds_by_member[stalled_id.raw()];
  r.delivered_stalled = delivered_stalled;
  r.pressure_signals = pressure_signals;
  r.retained_after = proxy->retained_bytes();
  if (healthy_at.size() >= 2) {
    double span = healthy_at.back() - healthy_at.front();
    if (span > 0) {
      r.healthy_eps =
          static_cast<double>(healthy_at.size() - 1) / span;
    }
  }
  r.healthy_fifo_complete = true;
  for (const auto& seen : healthy_seen) {
    bool ok = seen.size() == static_cast<std::size_t>(p.events);
    for (std::size_t i = 0; ok && i < seen.size(); ++i) {
      ok = seen[i] == static_cast<int>(i);
    }
    r.healthy_fifo_complete = r.healthy_fifo_complete && ok;
  }

  // The §9 invariants. Slack: the budget check admits the message that
  // crosses the line when nothing queued can be shed for it, and a few
  // control-class bytes (flow control) are retained outside the budget.
  const std::uint64_t slack = 1024;
  check(r, r.peak_retained <= p.budget + slack,
        "retained bytes exceeded budget + slack");
  check(r, r.healthy_fifo_complete,
        "a healthy member missed events or saw them out of order");
  check(r, r.pressure_signals >= 1, "publisher never saw backpressure");
  check(r, r.soft_fails >= 1, "publish never soft-failed under pressure");
  check(r, r.sheds_total > 0, "overload never tripped the budget");
  check(r, r.sheds_total == r.sheds_stalled,
        "sheds charged to a member other than the stalled one");
  check(r,
        r.delivered_stalled + r.sheds_stalled ==
            static_cast<std::uint64_t>(p.events),
        "stalled member accounting leak: delivered + shed != published");
  check(r, r.retained_after == 0, "retained bytes did not drain after heal");
  return r;
}

void print_row(BusEngine engine, const OverloadParams& p,
               const OverloadResult& r) {
  std::printf(
      "  %-11s events=%-4d budget=%-6zu peak=%-6llu sheds=%-4llu "
      "stalled_got=%-4llu pressure=%llu soft_fail=%-4llu eps=%6.1f %s\n",
      to_string(engine), p.events, p.budget,
      static_cast<unsigned long long>(r.peak_retained),
      static_cast<unsigned long long>(r.sheds_total),
      static_cast<unsigned long long>(r.delivered_stalled),
      static_cast<unsigned long long>(r.pressure_signals),
      static_cast<unsigned long long>(r.soft_fails), r.healthy_eps,
      r.violations.empty() ? "ok" : "VIOLATION");
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "    violation: %s\n", v.c_str());
  }
}

int run_smoke() {
  std::printf("overload smoke: bounded delivery invariants, slow consumer\n");
  OverloadParams p;
  p.events = 150;
  p.payload = 256;
  p.budget = 16 * 1024;
  p.high_water = 12 * 1024;
  p.low_water = 4 * 1024;
  int violations = 0;
  for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
    OverloadResult r = measure(engine, p);
    print_row(engine, p, r);
    violations += static_cast<int>(r.violations.size());
  }
  if (violations != 0) {
    std::fprintf(stderr, "overload smoke: %d invariant violation(s)\n",
                 violations);
    return 1;
  }
  std::printf("overload smoke: all invariants hold\n");
  return 0;
}

int run_full(const char* json_path) {
  std::printf("Overload: 1000 × 512 B burst, 64 KB per-member budget, one "
              "stalled subscriber\n");
  print_header(
      "peak = stalled channel retained-byte high-water (budget 65536 + 1 "
      "message slack); sheds are accounted drops at the stalled member; "
      "eps = healthy delivery rate",
      "  engine      parameters and observed invariants");
  OverloadParams p;  // the headline acceptance configuration
  int violations = 0;
  OverloadResult cbased;
  for (BusEngine engine : {BusEngine::kCBased, BusEngine::kSienaBased}) {
    OverloadResult r = measure(engine, p);
    print_row(engine, p, r);
    violations += static_cast<int>(r.violations.size());
    if (engine == BusEngine::kCBased) cbased = std::move(r);
  }
  std::printf("\nexpected shape: peak stays pinned at the budget while sheds "
              "absorb the overflow;\nstalled_got + sheds == events published "
              "(nothing lost silently); healthy eps tracks\nthe publish pace "
              "untouched by the stalled peer\n");

  const int wrote = write_json(json_path, [&](std::FILE* f) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"overload\",\n"
        "  \"events\": %d,\n  \"payload_bytes\": %zu,\n"
        "  \"budget_bytes\": %zu,\n"
        "  \"peak_retained_bytes\": %llu,\n"
        "  \"events_shed\": %llu,\n"
        "  \"stalled_delivered\": %llu,\n"
        "  \"pressure_signals\": %llu,\n"
        "  \"publish_soft_fails\": %llu,\n"
        "  \"healthy_fifo_complete\": %s,\n"
        "  \"healthy_events_per_sec\": %.1f,\n"
        "  \"violations\": %zu\n}\n",
        p.events, p.payload, p.budget,
        static_cast<unsigned long long>(cbased.peak_retained),
        static_cast<unsigned long long>(cbased.sheds_total),
        static_cast<unsigned long long>(cbased.delivered_stalled),
        static_cast<unsigned long long>(cbased.pressure_signals),
        static_cast<unsigned long long>(cbased.soft_fails),
        cbased.healthy_fifo_complete ? "true" : "false", cbased.healthy_eps,
        cbased.violations.size());
  });
  if (wrote != 0) return 1;
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace amuse::bench

int main(int argc, char** argv) {
  using namespace amuse::bench;
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return smoke ? run_smoke() : run_full(json_path_arg(argc, argv));
}
