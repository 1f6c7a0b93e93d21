// Simulated datagram network: the reproduction's stand-in for the paper's
// physical testbed (iPAQ PDA ⟷ laptop over USB-IP, later Bluetooth/ZigBee).
//
// Hosts are single-threaded busy servers with a CostModel (hostmodel/);
// directed links have latency, jitter, loss (optionally bursty), duplication
// and finite bandwidth. Everything is driven by a SimExecutor and a seeded
// Rng, so runs are deterministic.
//
// Each datagram copy on the wire lives in a pooled in-flight slot and
// moves through two scheduled stages, arrival and hand-over; both tasks
// capture only the slot index. Every copy sent ends either delivered or
// in exactly one dropped_* bucket.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "hostmodel/cost_model.hpp"
#include "net/transport.hpp"
#include "sim/executor.hpp"

namespace amuse {

/// One direction of a point-to-point (or shared-medium) link.
struct LinkModel {
  /// Propagation+queueing latency: uniform in [latency_min,
  /// latency_min + latency_spread). Defaults reproduce the paper's USB-IP
  /// link: 0.6 ms min, 2.3 ms max, ≈1.45 ms mean.
  Duration latency_min = microseconds(600);
  Duration latency_spread = microseconds(1700);
  /// Independent drop probability per datagram.
  double loss = 0.0;
  /// Probability a delivered datagram is duplicated.
  double dup = 0.0;
  /// Serialisation bandwidth in bytes/second; <= 0 means infinite.
  /// Default matches the paper's measured ~575 KB/s raw capacity.
  double bandwidth_bps = 575.0 * 1024.0;
  /// Datagrams larger than this are dropped (with a stats count).
  std::size_t mtu = 65507;
  /// Gilbert–Elliott bursty loss. When enabled, `loss` applies in the good
  /// state and `loss_bad` in the bad state.
  bool bursty = false;
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.2;
  double loss_bad = 0.9;
};

/// A simulated machine. Work (packet handling, matching, translation) is
/// serialised through its single CPU; charge() returns the completion time.
class SimHost {
 public:
  SimHost(std::string name, CostModel cpu, std::uint32_t addr,
          std::uint64_t rng_seed)
      : name_(std::move(name)), cpu_(cpu), addr_(addr), rng_(rng_seed) {}

  /// Queues `cost` of CPU work arriving at `now`; returns when it finishes.
  TimePoint charge(TimePoint now, Duration cost);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const CostModel& cpu() const { return cpu_; }
  [[nodiscard]] std::uint32_t addr() const { return addr_; }
  [[nodiscard]] Duration busy_time() const { return busy_accum_; }
  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

 private:
  std::string name_;
  CostModel cpu_;
  std::uint32_t addr_;
  Rng rng_;
  TimePoint cpu_free_{};
  Duration busy_accum_{};
  bool up_ = true;
};

class SimNetwork;

/// Endpoint bound to a host; implements the generic Transport.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, SimHost& host, ServiceId id)
      : net_(net), host_(host), id_(id) {}

  [[nodiscard]] ServiceId local_id() const override { return id_; }
  void send(ServiceId dst, BytesView data) override;
  void broadcast(BytesView data) override;
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  [[nodiscard]] SimHost& host() { return host_; }

 private:
  friend class SimNetwork;
  SimNetwork& net_;
  SimHost& host_;
  ServiceId id_;
  ReceiveHandler handler_;
};

class SimNetwork {
 public:
  struct Stats {
    Counter datagrams_sent;
    Counter datagrams_delivered;
    Counter dropped_loss;
    Counter dropped_down;
    Counter dropped_no_endpoint;
    Counter dropped_mtu;
    Counter dropped_partition;
    Counter duplicated;
    Counter bytes_sent;
    Counter bytes_delivered;
  };

  SimNetwork(Executor& executor, std::uint64_t seed)
      : executor_(executor), rng_(seed, /*stream=*/0x6e657477) {}

  /// Adds a machine; `cpu` from hostmodel/profiles.hpp.
  SimHost& add_host(std::string name, const CostModel& cpu);

  /// Creates an endpoint on `host`; the id follows the prototype's rule
  /// (host address + OS-chosen port).
  std::shared_ptr<SimTransport> create_endpoint(SimHost& host);

  /// Link model used where no explicit link is set.
  void set_default_link(const LinkModel& m) { default_link_ = m; }
  [[nodiscard]] const LinkModel& default_link() const { return default_link_; }
  /// Sets both directions between two hosts.
  void set_link(const SimHost& a, const SimHost& b, const LinkModel& m);
  /// Sets one direction only.
  void set_link_oneway(const SimHost& from, const SimHost& to,
                       const LinkModel& m);

  // ---- Scripted fault injection (the protocol-torture harness's knobs).

  /// Replaces the model of an existing (or default-materialised) link
  /// *in place*, both directions: unlike set_link, transmission-queue and
  /// Gilbert–Elliott state survive, so a mid-run MTU squeeze or loss change
  /// behaves like a property of the radio environment, not a new link.
  void update_link(const SimHost& a, const SimHost& b, const LinkModel& m);
  void update_link_oneway(const SimHost& from, const SimHost& to,
                          const LinkModel& m);
  /// The model currently governing from→to traffic (default if unset).
  [[nodiscard]] const LinkModel& link_model(const SimHost& from,
                                            const SimHost& to);

  /// Network partitions: hosts in different non-negative groups cannot
  /// exchange datagrams (counted as dropped_partition). Every host starts
  /// in group 0; clear_partitions() returns everyone there.
  void set_partition_group(const SimHost& host, int group);
  [[nodiscard]] int partition_group(const SimHost& host) const;
  void clear_partitions() { partition_.clear(); }

  /// Schedules a timed mutation of the network (link/host/partition
  /// changes) on the driving executor — the unit of a deterministic,
  /// replayable fault schedule.
  void schedule_fault(TimePoint at, std::function<void(SimNetwork&)> fault);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }
  [[nodiscard]] Executor& executor() { return executor_; }

 private:
  friend class SimTransport;

  struct DirectedLink {
    LinkModel model;
    TimePoint busy_until{};
    bool bad_state = false;
  };

  /// One datagram copy between transmit() and its hand-over to the
  /// receive handler. Slots are recycled through a free list, and a
  /// recycled slot keeps its payload buffer's capacity, so a steady stream
  /// of datagrams allocates nothing here. The destination is held weakly:
  /// an endpoint destroyed in flight is a dropped_no_endpoint, with no id
  /// lookup per stage (ports are never reused, so the id names no other).
  struct InFlight {
    std::weak_ptr<SimTransport> dst;
    ServiceId src;
    TimePoint arrival;
    Bytes payload;
  };

  void send_from(SimTransport& src, ServiceId dst, BytesView data);
  void broadcast_from(SimTransport& src, BytesView data);
  /// Transmits one already-CPU-charged datagram over the link and schedules
  /// delivery on the destination endpoint.
  void transmit(SimHost& src_host, const std::shared_ptr<SimTransport>& dst,
                TimePoint ready, BytesView data, ServiceId src_id);
  /// Stage 1: the copy reaches the destination host, which queues the
  /// receive work on its CPU.
  void arrive(std::uint32_t slot);
  /// Stage 2: the host gets to it and the endpoint's handler runs.
  void hand_over(std::uint32_t slot);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  DirectedLink& link_between(const SimHost& from, const SimHost& to);
  bool roll_loss(DirectedLink& link);

  Executor& executor_;
  Rng rng_;
  LinkModel default_link_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::unordered_map<ServiceId, std::weak_ptr<SimTransport>> endpoints_;
  std::map<std::pair<const SimHost*, const SimHost*>, DirectedLink> links_;
  std::map<const SimHost*, int> partition_;  // absent = group 0
  // A deque, not a vector: a handler running in hand_over() may send, and
  // the slot it is reading from must not move when the pool grows.
  std::deque<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  Stats stats_;
  std::uint16_t next_port_ = 40'000;
  std::uint32_t next_addr_ = (10u << 24) | 1u;  // 10.0.0.1 …
};

}  // namespace amuse
