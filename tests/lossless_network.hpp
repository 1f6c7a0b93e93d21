// In-process test network: a SimNetwork with one zero-cost host and a
// lossless, zero-latency, unbounded-bandwidth default link. Datagrams are
// never lost and arrive in send order per sender, at the sending instant.
#pragma once

#include <memory>

#include "hostmodel/cost_model.hpp"
#include "net/sim_network.hpp"

namespace amuse {

struct LosslessNetwork {
  explicit LosslessNetwork(Executor& executor) : net(executor, /*seed=*/1) {
    LinkModel link;
    link.latency_min = Duration{};
    link.latency_spread = Duration{};
    link.bandwidth_bps = 0;
    net.set_default_link(link);
  }

  std::shared_ptr<SimTransport> create_endpoint() {
    return net.create_endpoint(host);
  }

  SimNetwork net;
  SimHost& host = net.add_host("host", CostModel{});
};

}  // namespace amuse
