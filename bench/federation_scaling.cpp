// Federation scaling: inter-cell traffic vs interest selectivity across a
// line of federated cells (DESIGN.md §11).
//
// A publisher in cell 0 emits a mixed stream over 10 channels; members in
// every other cell subscribe to `wanted` of the 10. The A/B compares the
// interest-driven gateway (forwarding only what some downstream cell
// asked for) against a flooding gateway (a static share of everything —
// the overlay a naive bridge builds). The figure of merit is events and
// bytes crossing inter-cell links: interest-driven routing should scale
// them with selectivity while delivering exactly the same events.
//
// `--smoke` (ctest bench.federation_smoke) asserts the suppression is real
// and exact on a 2-cell run: events crossing the link == matching
// publishes, the bus's fed_events_suppressed counter == non-matching
// publishes, and the flood baseline delivers nothing more.
#include <cstring>

#include "bench_util.hpp"
#include "smc/cell.hpp"
#include "smc/gateway.hpp"
#include "smc/member.hpp"

namespace amuse::bench {
namespace {

struct FedResult {
  std::uint64_t published = 0;
  std::uint64_t crossed = 0;     // gateway forwards summed over all links
  std::uint64_t suppressed = 0;  // cell-0 publishes no gateway wanted
  std::uint64_t delivered = 0;   // deliveries at remote subscribers
  std::uint64_t bytes = 0;       // bytes on air during the publish phase
  std::uint64_t datagrams = 0;
};

FedResult run(int n_cells, int members_per_cell, int wanted_of_10,
              bool interest_driven, int events) {
  SimExecutor ex;
  SimNetwork net(ex, 0xFEDul * static_cast<std::uint64_t>(
                                   n_cells * 100 + members_per_cell * 10 +
                                   wanted_of_10) +
                         (interest_driven ? 1 : 0));
  net.set_default_link(profiles::usb_ip_link());

  auto cell_name = [](int c) { return "fed-cell-" + std::to_string(c); };
  auto cell_key = [](int c) { return to_bytes("fed-key-" + std::to_string(c)); };

  std::vector<std::unique_ptr<SelfManagedCell>> cells;
  for (int c = 0; c < n_cells; ++c) {
    SimHost& h = net.add_host("core" + std::to_string(c),
                              profiles::ideal_host());
    SmcCellConfig cc;
    cc.name = cell_name(c);
    cc.pre_shared_key = cell_key(c);
    cc.discovery.beacon_interval = milliseconds(300);
    cc.discovery.heartbeat_interval = milliseconds(300);
    auto cell = std::make_unique<SelfManagedCell>(
        ex, net.create_endpoint(h), net.create_endpoint(h), cc);
    cell->start();
    cells.push_back(std::move(cell));
  }

  auto member_config = [&](int c, const std::string& device,
                           const char* role) {
    SmcMemberConfig mc;
    mc.agent.cell_name = cell_name(c);
    mc.agent.pre_shared_key = cell_key(c);
    mc.agent.device_type = device;
    mc.agent.role = role;
    return mc;
  };

  FedResult r;
  std::vector<std::unique_ptr<SmcMember>> members;
  SmcMember* publisher = nullptr;
  for (int c = 0; c < n_cells; ++c) {
    for (int j = 0; j < members_per_cell; ++j) {
      SimHost& h = net.add_host(
          "c" + std::to_string(c) + "m" + std::to_string(j),
          profiles::ideal_host());
      auto m = std::make_unique<SmcMember>(
          ex, net.create_endpoint(h),
          member_config(c, "bench.member", ""));
      if (c == 0 && j == 0) {
        publisher = m.get();  // cell-0's first member only publishes
      } else if (c > 0) {
        // Remote members want `wanted_of_10` of the 10 channels.
        for (int t = 0; t < wanted_of_10; ++t) {
          (void)m->subscribe(Filter::for_type("chan." + std::to_string(t)),
                             [&r](const Event&) { ++r.delivered; });
        }
      }
      m->start();
      members.push_back(std::move(m));
    }
  }

  std::vector<std::unique_ptr<SmcMember>> gw_members;
  std::vector<std::unique_ptr<FederationGateway>> gateways;
  for (int l = 0; l + 1 < n_cells; ++l) {
    SimHost& h = net.add_host("gw" + std::to_string(l),
                              profiles::ideal_host());
    auto mx = std::make_unique<SmcMember>(
        ex, net.create_endpoint(h),
        member_config(l, "gateway", kGatewayRole.data()));
    auto my = std::make_unique<SmcMember>(
        ex, net.create_endpoint(h),
        member_config(l + 1, "gateway", kGatewayRole.data()));
    gateways.push_back(std::make_unique<FederationGateway>(*mx, *my));
    gateways.push_back(std::make_unique<FederationGateway>(*my, *mx));
    if (!interest_driven) {
      // Flood baseline: a static share of everything, both directions.
      gateways[gateways.size() - 2]->share(Filter());
      gateways[gateways.size() - 1]->share(Filter());
    }
    mx->start();
    my->start();
    gw_members.push_back(std::move(mx));
    gw_members.push_back(std::move(my));
  }

  // Let every cell form and the interest tables converge transitively.
  ex.run_for(seconds(6));
  net.reset_stats();
  std::uint64_t suppressed_before =
      cells[0]->bus().stats().fed_events_suppressed;
  std::vector<std::uint64_t> forwarded_before;
  for (auto& g : gateways) forwarded_before.push_back(g->stats().forwarded);

  TimePoint start = ex.now();
  for (int i = 0; i < events; ++i) {
    ex.schedule_at(start + milliseconds(40 * i), [publisher, i] {
      Event e("chan." + std::to_string(i % 10));
      e.set("data", Bytes(64, 0));
      (void)publisher->publish(std::move(e));
    });
  }
  ex.run_for(milliseconds(40 * events) + seconds(5));

  r.published = static_cast<std::uint64_t>(events);
  for (std::size_t g = 0; g < gateways.size(); ++g) {
    r.crossed += gateways[g]->stats().forwarded - forwarded_before[g];
  }
  r.suppressed =
      cells[0]->bus().stats().fed_events_suppressed - suppressed_before;
  r.bytes = net.stats().bytes_sent;
  r.datagrams = net.stats().datagrams_sent;
  return r;
}

int run_smoke() {
  std::printf("federation smoke: 2 cells, 60 events, 3/10 wanted\n");
  FedResult interest = run(2, 2, 3, true, 60);
  FedResult flood = run(2, 2, 3, false, 60);
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %-58s %s\n", what, ok ? "ok" : "VIOLATION");
    if (!ok) ++failures;
  };
  // Suppression is real and exact: only the 18 matching publishes cross,
  // and every non-matching publish is accounted in the counter.
  expect(interest.crossed == 18, "interest: crossed == matching publishes");
  expect(interest.suppressed == 42,
         "interest: fed_events_suppressed == non-matching publishes");
  expect(flood.crossed == 60, "flood: every publish crosses the link");
  // 18 matching publishes × 2 subscribed members in the remote cell.
  expect(interest.delivered == flood.delivered && interest.delivered == 36,
         "both modes deliver exactly the matching events");
  expect(interest.bytes < flood.bytes,
         "interest-driven run puts fewer bytes on air");
  if (failures != 0) {
    std::fprintf(stderr, "federation smoke: %d violation(s)\n", failures);
    return 1;
  }
  std::printf("federation smoke: suppression exact, delivery identical\n");
  return 0;
}

int run_full(const char* json_path) {
  std::printf("Federation scaling: inter-cell traffic vs interest "
              "selectivity (line overlay, 400 events, 64 B payloads)\n");
  print_header(
      "interest-driven vs flooding gateways; crossed = events over any "
      "inter-cell link, suppressed = cell-0 publishes no gateway wanted",
      "cells  members  wanted/10  mode      crossed  suppressed  delivered"
      "  bytes_on_air  dgrams");
  struct Row {
    int cells, members, wanted;
    FedResult interest, flood;
  };
  std::vector<Row> rows;
  for (int n_cells : {2, 3, 4}) {
    for (int members : {2, 4}) {
      for (int wanted : {1, 3, 5, 10}) {
        Row row{n_cells, members, wanted,
                run(n_cells, members, wanted, true, 400),
                run(n_cells, members, wanted, false, 400)};
        for (bool interest_driven : {true, false}) {
          const FedResult& r = interest_driven ? row.interest : row.flood;
          std::printf(
              "%5d  %7d  %9d  %-8s  %7llu  %10llu  %9llu  %12llu  %6llu%s",
              n_cells, members, wanted,
              interest_driven ? "interest" : "flood",
              static_cast<unsigned long long>(r.crossed),
              static_cast<unsigned long long>(r.suppressed),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.bytes),
              static_cast<unsigned long long>(r.datagrams),
              interest_driven ? "\n" : "");
          if (!interest_driven) {
            std::printf("  (%.0f%% fewer bytes)\n",
                        100.0 * (1.0 - static_cast<double>(row.interest.bytes) /
                                           static_cast<double>(r.bytes)));
          }
        }
        rows.push_back(row);
      }
    }
  }
  std::printf("\nexpected shape: crossed scales with wanted/10 under "
              "interest routing and stays at the publish count when "
              "flooding; delivered identical in both modes; byte savings "
              "shrink as selectivity approaches 10/10\n");

  return write_json(json_path, [&](std::FILE* f) {
    std::fprintf(f, "{\n  \"bench\": \"federation_scaling\",\n"
                    "  \"events\": 400,\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"cells\": %d, \"members_per_cell\": %d, \"wanted_of_10\": "
          "%d, \"interest_crossed\": %llu, \"interest_suppressed\": %llu, "
          "\"interest_delivered\": %llu, \"interest_bytes\": %llu, "
          "\"flood_crossed\": %llu, \"flood_delivered\": %llu, "
          "\"flood_bytes\": %llu}%s\n",
          r.cells, r.members, r.wanted,
          static_cast<unsigned long long>(r.interest.crossed),
          static_cast<unsigned long long>(r.interest.suppressed),
          static_cast<unsigned long long>(r.interest.delivered),
          static_cast<unsigned long long>(r.interest.bytes),
          static_cast<unsigned long long>(r.flood.crossed),
          static_cast<unsigned long long>(r.flood.delivered),
          static_cast<unsigned long long>(r.flood.bytes),
          i + 1 < rows.size() ? "," : "");
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
