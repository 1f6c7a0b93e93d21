// Shared helpers for the reproduction benchmarks: the simulated PDA⟷laptop
// testbed of §IV/§V, summary statistics and table printing.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus_client.hpp"
#include "bus/event_bus.hpp"
#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace amuse::bench {

struct Stats {
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  std::size_t n = 0;
};

inline Stats summarize(std::vector<double> xs) {
  Stats s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.n = xs.size();
  s.min = xs.front();
  s.max = xs.back();
  s.p50 = xs[xs.size() / 2];
  s.p95 = xs[static_cast<std::size_t>(static_cast<double>(xs.size() - 1) *
                                      0.95)];
  double sum = 0;
  for (double v : xs) sum += v;
  s.mean = sum / static_cast<double>(xs.size());
  return s;
}

/// Zeroes the reliable channel's datagram-economy knobs: one frame per
/// message, one ack per DATA frame — the paper's original wire behaviour.
inline void disable_coalescing(ReliableChannelConfig& c) {
  c.max_batch_messages = 0;
  c.max_batch_bytes = 0;
  c.ack_delay = Duration{};
}

/// The paper's testbed: event bus on the iPAQ PDA, peer services on the
/// laptop, joined by the measured USB-IP link. Members are added directly
/// (no discovery) so the benchmark isolates the event-bus path.
/// `coalesce=false` reproduces the paper's wire behaviour (no frame
/// coalescing, no delayed acks) for A/B comparisons.
struct Testbed {
  explicit Testbed(BusEngine engine, std::uint64_t seed = 1,
                   LinkModel link = profiles::usb_ip_link(),
                   bool coalesce = true)
      : coalesce_frames(coalesce),
        net(ex, seed),
        pda(net.add_host("ipaq-hx4700", profiles::pda_ipaq_hx4700())),
        laptop(net.add_host("laptop-p3", profiles::laptop_p3_1200())) {
    net.set_default_link(link);
    EventBusConfig cfg;
    cfg.engine = engine;
    cfg.host = &pda;  // bus software costs are charged to the PDA
    // A generous initial timeout: response times on the PDA reach ~600 ms
    // at 5 KB payloads, and the adaptive RTO only kicks in after the first
    // sample. Without this the very first large event double-sends.
    cfg.channel.rto_initial = seconds(2);
    if (!coalesce_frames) disable_coalescing(cfg.channel);
    bus = std::make_unique<EventBus>(ex, net.create_endpoint(pda), cfg);
  }

  std::unique_ptr<BusClient> laptop_client(const std::string& type) {
    auto transport = net.create_endpoint(laptop);
    bus->add_member(MemberInfo{transport->local_id(), type, "service"});
    BusClientConfig cfg;
    cfg.channel.rto_initial = seconds(2);
    if (!coalesce_frames) disable_coalescing(cfg.channel);
    return std::make_unique<BusClient>(ex, std::move(transport),
                                       bus->bus_id(), cfg);
  }

  bool coalesce_frames;
  SimExecutor ex;
  SimNetwork net;
  SimHost& pda;
  SimHost& laptop;
  std::unique_ptr<EventBus> bus;
};

/// Event with an opaque payload of `n` bytes — the Figure 4 workload.
inline Event payload_event(std::size_t n) {
  Event e("perf.payload");
  e.set("data", Bytes(n, 0x5A));
  return e;
}

inline void print_header(const char* title, const char* columns) {
  std::printf("\n== %s ==\n%s\n", title, columns);
}

/// The PATH of a `--json PATH` argument, or nullptr when there is none.
inline const char* json_path_arg(int argc, char** argv) {
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Writes a bench artifact: `body(f)` prints the JSON into the opened file.
/// Writes nothing when `path` is null. Returns 1 when the file cannot be
/// opened, 0 otherwise.
template <typename Body>
int write_json(const char* path, Body&& body) {
  if (path == nullptr) return 0;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  body(f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace amuse::bench
