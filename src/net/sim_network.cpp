#include "net/sim_network.hpp"

#include <utility>

namespace amuse {

TimePoint SimHost::charge(TimePoint now, Duration cost) {
  if (cpu_.sched_jitter_max > Duration{}) {
    cost += Duration(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(cpu_.sched_jitter_max.count())));
  }
  TimePoint start = std::max(now, cpu_free_);
  cpu_free_ = start + cost;
  busy_accum_ += cost;
  return cpu_free_;
}

void SimTransport::send(ServiceId dst, BytesView data) {
  net_.send_from(*this, dst, data);
}

void SimTransport::broadcast(BytesView data) {
  net_.broadcast_from(*this, data);
}

SimHost& SimNetwork::add_host(std::string name, const CostModel& cpu) {
  hosts_.push_back(std::make_unique<SimHost>(
      std::move(name), cpu, next_addr_++, rng_.next_u64()));
  return *hosts_.back();
}

std::shared_ptr<SimTransport> SimNetwork::create_endpoint(SimHost& host) {
  ServiceId id = ServiceId::from_addr_port(host.addr(), next_port_++);
  auto ep = std::make_shared<SimTransport>(*this, host, id);
  endpoints_[id] = ep;
  return ep;
}

void SimNetwork::set_link(const SimHost& a, const SimHost& b,
                          const LinkModel& m) {
  set_link_oneway(a, b, m);
  set_link_oneway(b, a, m);
}

void SimNetwork::set_link_oneway(const SimHost& from, const SimHost& to,
                                 const LinkModel& m) {
  links_[{&from, &to}] = DirectedLink{m, {}, false};
}

void SimNetwork::update_link(const SimHost& a, const SimHost& b,
                             const LinkModel& m) {
  update_link_oneway(a, b, m);
  update_link_oneway(b, a, m);
}

void SimNetwork::update_link_oneway(const SimHost& from, const SimHost& to,
                                    const LinkModel& m) {
  link_between(from, to).model = m;  // busy_until / bad_state survive
}

const LinkModel& SimNetwork::link_model(const SimHost& from,
                                        const SimHost& to) {
  return link_between(from, to).model;
}

void SimNetwork::set_partition_group(const SimHost& host, int group) {
  if (group == 0) {
    partition_.erase(&host);
  } else {
    partition_[&host] = group;
  }
}

int SimNetwork::partition_group(const SimHost& host) const {
  auto it = partition_.find(&host);
  return it == partition_.end() ? 0 : it->second;
}

void SimNetwork::schedule_fault(TimePoint at,
                                std::function<void(SimNetwork&)> fault) {
  executor_.schedule_at(at, [this, fault = std::move(fault)] { fault(*this); });
}

SimNetwork::DirectedLink& SimNetwork::link_between(const SimHost& from,
                                                   const SimHost& to) {
  auto it = links_.find({&from, &to});
  if (it == links_.end()) {
    it = links_.emplace(std::make_pair(&from, &to),
                        DirectedLink{default_link_, {}, false})
             .first;
  }
  return it->second;
}

bool SimNetwork::roll_loss(DirectedLink& link) {
  const LinkModel& m = link.model;
  if (m.bursty) {
    if (link.bad_state) {
      if (rng_.chance(m.p_bad_to_good)) link.bad_state = false;
    } else {
      if (rng_.chance(m.p_good_to_bad)) link.bad_state = true;
    }
    return rng_.chance(link.bad_state ? m.loss_bad : m.loss);
  }
  return rng_.chance(m.loss);
}

void SimNetwork::send_from(SimTransport& src, ServiceId dst, BytesView data) {
  ++stats_.datagrams_sent;
  stats_.bytes_sent += data.size();
  // Sender pays the CPU cost even when the datagram is later lost.
  TimePoint ready =
      src.host().charge(executor_.now(), src.host().cpu().send_cost(data.size()));

  auto it = endpoints_.find(dst);
  std::shared_ptr<SimTransport> target =
      it != endpoints_.end() ? it->second.lock() : nullptr;
  if (!target) {
    ++stats_.dropped_no_endpoint;
    return;
  }
  transmit(src.host(), target, ready, data, src.local_id());
}

void SimNetwork::broadcast_from(SimTransport& src, BytesView data) {
  ++stats_.datagrams_sent;
  stats_.bytes_sent += data.size();
  TimePoint ready =
      src.host().charge(executor_.now(), src.host().cpu().send_cost(data.size()));
  // Snapshot live endpoints first: deliveries scheduled below must not see
  // endpoints created by earlier deliveries of this same broadcast.
  std::vector<std::shared_ptr<SimTransport>> targets;
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    if (auto ep = it->second.lock()) {
      if (ep.get() != &src) targets.push_back(std::move(ep));
      ++it;
    } else {
      it = endpoints_.erase(it);
    }
  }
  for (auto& target : targets) {
    transmit(src.host(), target, ready, data, src.local_id());
  }
}

void SimNetwork::transmit(SimHost& src_host,
                          const std::shared_ptr<SimTransport>& dst,
                          TimePoint ready, BytesView data, ServiceId src_id) {
  SimHost& dst_host = dst->host();
  DirectedLink& link = link_between(src_host, dst_host);
  const LinkModel& m = link.model;

  if (data.size() > m.mtu) {
    ++stats_.dropped_mtu;
    return;
  }
  if (!src_host.up() || !dst_host.up()) {
    ++stats_.dropped_down;
    return;
  }
  if (!partition_.empty() &&
      partition_group(src_host) != partition_group(dst_host)) {
    ++stats_.dropped_partition;
    return;
  }
  if (roll_loss(link)) {
    ++stats_.dropped_loss;
    return;
  }

  Duration serialisation{};
  if (m.bandwidth_bps > 0) {
    serialisation = from_seconds(static_cast<double>(data.size()) /
                                 m.bandwidth_bps);
  }
  TimePoint tx_start = std::max(ready, link.busy_until);
  link.busy_until = tx_start + serialisation;

  int copies = rng_.chance(m.dup) ? 2 : 1;
  if (copies == 2) ++stats_.duplicated;

  for (int i = 0; i < copies; ++i) {
    Duration latency =
        m.latency_min + Duration(static_cast<std::int64_t>(
                            rng_.uniform() *
                            static_cast<double>(m.latency_spread.count())));
    std::uint32_t slot = acquire_slot();
    InFlight& d = in_flight_[slot];
    d.dst = dst;
    d.src = src_id;
    d.arrival = link.busy_until + latency;
    d.payload.assign(data.begin(), data.end());
    executor_.schedule_at(d.arrival, [this, slot] { arrive(slot); });
  }
}

void SimNetwork::arrive(std::uint32_t slot) {
  InFlight& d = in_flight_[slot];
  std::shared_ptr<SimTransport> ep = d.dst.lock();
  if (!ep || !ep->handler_) {
    ++stats_.dropped_no_endpoint;
    release_slot(slot);
    return;
  }
  if (!ep->host().up()) {
    ++stats_.dropped_down;
    release_slot(slot);
    return;
  }
  // Receive-side CPU cost: the handler runs when the host gets to it.
  SimHost& host = ep->host();
  TimePoint done =
      host.charge(d.arrival, host.cpu().recv_cost(d.payload.size()));
  executor_.schedule_at(done, [this, slot] { hand_over(slot); });
}

void SimNetwork::hand_over(std::uint32_t slot) {
  InFlight& d = in_flight_[slot];
  std::shared_ptr<SimTransport> ep = d.dst.lock();
  if (!ep || !ep->handler_ || !ep->host().up()) {
    ++stats_.dropped_no_endpoint;
  } else {
    ++stats_.datagrams_delivered;
    stats_.bytes_delivered += d.payload.size();
    ep->handler_(d.src, d.payload);
  }
  release_slot(slot);
}

std::uint32_t SimNetwork::acquire_slot() {
  if (free_slots_.empty()) {
    in_flight_.emplace_back();
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void SimNetwork::release_slot(std::uint32_t slot) {
  in_flight_[slot].dst.reset();  // let a destroyed endpoint's block go
  free_slots_.push_back(slot);
}

}  // namespace amuse
