#include "torture/driver.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "torture/oracle.hpp"

namespace amuse::torture {
namespace {

const Bytes kPsk = to_bytes("torture-key");
constexpr const char* kCellName = "torture-cell";

std::string fmt_time(TimePoint t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << to_seconds(t.time_since_epoch()) << "s";
  return os.str();
}

}  // namespace

const char* to_string(TortureOp op) {
  switch (op) {
    case TortureOp::kCrash: return "crash";
    case TortureOp::kRecover: return "recover";
    case TortureOp::kLeave: return "leave";
    case TortureOp::kRestart: return "restart";
    case TortureOp::kLinkFault: return "link-fault";
    case TortureOp::kMtuSqueeze: return "mtu-squeeze";
    case TortureOp::kLinkHeal: return "link-heal";
    case TortureOp::kStall: return "stall";
    case TortureOp::kPartition: return "partition";
    case TortureOp::kHealPartition: return "heal-partition";
    case TortureOp::kBurst: return "burst";
    case TortureOp::kSubAdd: return "sub-add";
    case TortureOp::kSubDrop: return "sub-drop";
    case TortureOp::kCoreCrash: return "core-crash";
    case TortureOp::kCoreRevive: return "core-revive";
    case TortureOp::kSplitBrain: return "split-brain";
    case TortureOp::kChainCrash: return "chain-crash";
    case TortureOp::kChainRevive: return "chain-revive";
  }
  return "?";
}

std::string TortureStep::to_string() const {
  std::ostringstream os;
  os << "@" << std::fixed << std::setprecision(3) << to_seconds(at) << "s "
     << torture::to_string(op);
  if (member >= 0) os << " member=" << member;
  if (a != 0) os << " a=" << a;
  if (b != 0) os << " b=" << b;
  return os.str();
}

Schedule generate_schedule(std::uint64_t seed, const TortureConfig& config) {
  Schedule sched;
  sched.seed = seed;
  Rng rng(seed, /*stream=*/0x7024);

  const double horizon_s = to_seconds(config.horizon);
  auto at = [&](double lo_s, double hi_s) {
    return from_seconds(rng.uniform(lo_s, hi_s));
  };
  auto push = [&](Duration t, TortureOp op, int member, int a = 0,
                  int b = 0) {
    sched.steps.push_back(TortureStep{t, op, member, a, b});
  };

  for (int i = 0; i < config.incidents; ++i) {
    int member = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(config.members)));
    double roll = rng.uniform();
    if (roll < 0.30) {
      // Publish burst: 1–8 events from one member, any time.
      push(at(0.2, horizon_s - 1.0), TortureOp::kBurst, member,
           1 + static_cast<int>(rng.bounded(8)));
    } else if (roll < 0.45) {
      // Crash + recover; duration straddles the purge timeout sometimes.
      Duration t = at(0.2, horizon_s - 8.0);
      push(t, TortureOp::kCrash, member);
      push(t + at(0.5, 7.0), TortureOp::kRecover, member);
    } else if (roll < 0.55) {
      Duration t = at(0.2, horizon_s - 6.0);
      push(t, TortureOp::kLeave, member);
      push(t + at(0.5, 4.0), TortureOp::kRestart, member);
    } else if (roll < 0.70) {
      // Loss (sometimes bursty Gilbert–Elliott) on the member⟷core link.
      Duration t = at(0.2, horizon_s - 7.0);
      bool bursty = rng.chance(0.4);
      push(t, TortureOp::kLinkFault, member,
           20 + static_cast<int>(rng.bounded(51)), bursty ? 1 : 0);
      push(t + at(1.0, 6.0), TortureOp::kLinkHeal, member);
    } else if (roll < 0.78) {
      Duration t = at(0.2, horizon_s - 7.0);
      push(t, TortureOp::kMtuSqueeze, member,
           150 + static_cast<int>(rng.bounded(551)));
      push(t + at(1.0, 6.0), TortureOp::kLinkHeal, member);
    } else if (roll < 0.86) {
      // Slow consumer: blackhole deliveries to one member while another
      // floods, so the budgets and shed accounting actually engage.
      Duration t = at(0.2, horizon_s - 7.0);
      push(t, TortureOp::kStall, member);
      push(t + at(0.1, 1.0), TortureOp::kBurst,
           (member + 1) % config.members,
           8 + static_cast<int>(rng.bounded(13)));
      push(t + at(1.5, 6.0), TortureOp::kLinkHeal, member);
    } else if (roll < 0.92) {
      // Partition: bit i of `b` sends member i to the far side.
      int mask = 0;
      for (int m = 0; m < config.members; ++m) {
        if (rng.chance(0.5)) mask |= 1 << m;
      }
      if (mask == 0) mask = 1;
      Duration t = at(0.2, horizon_s - 6.0);
      push(t, TortureOp::kPartition, -1, 0, mask);
      push(t + at(1.0, 5.0), TortureOp::kHealPartition, -1);
    } else if (roll < 0.95) {
      push(at(0.2, horizon_s - 1.0), TortureOp::kSubAdd, member,
           10 + static_cast<int>(rng.bounded(81)));
    } else {
      push(at(0.2, horizon_s - 1.0), TortureOp::kSubDrop, member);
    }
  }
  std::stable_sort(sched.steps.begin(), sched.steps.end(),
                   [](const TortureStep& x, const TortureStep& y) {
                     return x.at < y.at;
                   });
  return sched;
}

TortureResult run_torture(const Schedule& schedule,
                          const TortureConfig& config) {
  TortureResult result;

  SimExecutor ex;
  SimNetwork net(ex, schedule.seed ^ 0x9e3779b97f4a7c15ull);
  // The paper's USB-IP link, but with the latency jitter widened to
  // wireless-like tens of ms: wide jitter opens reordering/race windows
  // (e.g. a stale frame from a purged proxy landing after the member's
  // fresh channel exists) that sub-ms jitter can never hit.
  LinkModel base = profiles::usb_ip_link();
  base.latency_spread = milliseconds(30);
  net.set_default_link(base);
  SimHost& core = net.add_host("core", profiles::ideal_host());

  SmcCellConfig cc;
  cc.name = kCellName;
  cc.pre_shared_key = kPsk;
  cc.bus.engine = config.engine;
  cc.bus.quench = config.quench;
  cc.bus.channel.max_fragment_payload = 512;
  // Dense retransmissions: more protocol events per simulated second means
  // more chances to interleave badly with purges and rejoins.
  cc.bus.channel.rto_initial = milliseconds(120);
  cc.bus.channel.rto_min = milliseconds(80);
  // Tight delivery budgets (DESIGN.md §9) so stalls and bursts actually
  // overflow them: events encode to ~100 bytes, so ~20 retained events per
  // member. Sheds are legal under the refined guarantee (c) because every
  // one is accounted via the observer's shed tap.
  cc.bus.channel.max_queue_bytes = 2048;
  cc.bus.channel.flow_high_water = 1536;
  cc.bus.channel.flow_low_water = 512;
  cc.bus.bus_queue_bytes = 6144;
  cc.discovery.beacon_interval = milliseconds(300);
  cc.discovery.heartbeat_interval = milliseconds(300);
  cc.discovery.suspect_after = milliseconds(1200);
  cc.discovery.purge_after = seconds(3);
  cc.discovery.sweep_interval = milliseconds(150);
  auto cell = std::make_unique<SelfManagedCell>(
      ex, net.create_endpoint(core), net.create_endpoint(core), cc);

  DeliveryOracle oracle;
  oracle.attach(cell->bus(), [&ex] { return ex.now(); });
  cell->start();

  const int n = config.members;
  std::vector<SimHost*> hosts;
  std::vector<std::unique_ptr<SmcMember>> members;
  std::vector<std::int64_t> pub_n(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<std::uint64_t>> ephemeral(
      static_cast<std::size_t>(n));
  std::uint64_t next_eph_tag = 100;

  auto recorder = [&oracle](SmcMember* m, std::size_t idx,
                            std::uint64_t tag) {
    return [&oracle, m, idx, tag](const Event& e) {
      oracle.on_member_delivery(idx, m->id(), m->stats().joins, tag, e);
    };
  };

  for (int i = 0; i < n; ++i) {
    SimHost& h = net.add_host("m" + std::to_string(i),
                              profiles::ideal_host());
    hosts.push_back(&h);
    SmcMemberConfig mc;
    mc.agent.cell_name = kCellName;
    mc.agent.pre_shared_key = kPsk;
    mc.agent.device_type = "torture.m" + std::to_string(i);
    mc.agent.cell_lost_after = seconds(2);
    mc.quench = config.quench;
    mc.channel.max_fragment_payload = 512;
    mc.channel.rto_initial = milliseconds(120);
    mc.channel.rto_min = milliseconds(80);
    auto member = std::make_unique<SmcMember>(ex, net.create_endpoint(h), mc);
    SmcMember* m = member.get();
    std::size_t idx = static_cast<std::size_t>(i);
    // Two durable recorder subscriptions per member: a broad one and a
    // sharded one, so the two matching engines get non-trivial filter sets.
    (void)m->subscribe(Filter::for_type("torture"), recorder(m, idx, 0));
    (void)m->subscribe(
        Filter::for_type("torture").where("shard", Op::kEq, Value(i % 3)),
        recorder(m, idx, 1));
    m->set_on_joined([&oracle, &ex, m, idx] {
      oracle.on_member_joined(idx, m->stats().joins, ex.now());
    });
    m->start();
    members.push_back(std::move(member));
  }

  auto log_step = [&](const TortureStep& s) {
    result.log.push_back(fmt_time(ex.now()) + " " + s.to_string());
  };

  auto apply = [&](const TortureStep& s) {
    log_step(s);
    std::size_t m = s.member >= 0 ? static_cast<std::size_t>(s.member) : 0;
    switch (s.op) {
      case TortureOp::kCrash: hosts[m]->set_up(false); break;
      case TortureOp::kRecover: hosts[m]->set_up(true); break;
      case TortureOp::kLeave: members[m]->leave(); break;
      case TortureOp::kRestart: members[m]->start(); break;
      case TortureOp::kLinkFault: {
        LinkModel lm = base;
        if (s.b != 0) {
          lm.bursty = true;
          lm.p_good_to_bad = 0.2;
          lm.p_bad_to_good = 0.2;
          lm.loss_bad = 0.9;
          lm.loss = 0.05;
        } else {
          lm.loss = static_cast<double>(s.a) / 100.0;
        }
        net.update_link(core, *hosts[m], lm);
        break;
      }
      case TortureOp::kMtuSqueeze: {
        LinkModel lm = base;
        lm.mtu = static_cast<std::size_t>(s.a);
        net.update_link(core, *hosts[m], lm);
        break;
      }
      case TortureOp::kLinkHeal:
        net.update_link(core, *hosts[m], base);
        break;
      case TortureOp::kStall: {
        // One-way blackhole core→member: the member's heartbeats still
        // reach the core (no purge), but nothing the proxy sends arrives —
        // the classic slow consumer. kLinkHeal restores both directions.
        LinkModel lm = base;
        lm.loss = 1.0;
        net.update_link_oneway(core, *hosts[m], lm);
        break;
      }
      case TortureOp::kPartition:
        net.set_partition_group(core, 1);
        for (int i = 0; i < n; ++i) {
          net.set_partition_group(*hosts[static_cast<std::size_t>(i)],
                                  (s.b >> i) & 1 ? 2 : 1);
        }
        break;
      case TortureOp::kHealPartition: net.clear_partitions(); break;
      case TortureOp::kBurst:
        for (int k = 0; k < s.a; ++k) {
          Event e("torture");
          e.set("n", pub_n[m]++);
          e.set("shard", (s.member + k) % 3);
          e.set("v", (s.a * 7 + k * 13 + s.member * 3) % 100);
          (void)members[m]->publish(std::move(e));
        }
        break;
      case TortureOp::kSubAdd: {
        std::uint64_t tag = next_eph_tag++;
        std::uint64_t id = members[m]->subscribe(
            Filter::for_type("torture").where("v", Op::kGe, Value(s.a)),
            recorder(members[m].get(), m, tag));
        ephemeral[m].push_back(id);
        break;
      }
      case TortureOp::kSubDrop:
        if (!ephemeral[m].empty()) {
          members[m]->unsubscribe(ephemeral[m].front());
          ephemeral[m].erase(ephemeral[m].begin());
        }
        break;
      case TortureOp::kCoreCrash:
      case TortureOp::kCoreRevive:
      case TortureOp::kSplitBrain:
      case TortureOp::kChainCrash:
      case TortureOp::kChainRevive:
        // HA ops exist only in failover schedules (tests/torture/
        // failover.cpp); this single-core harness never generates them.
        break;
    }
  };

  // Let the cell form before the schedule starts.
  ex.run_for(seconds(2));
  TimePoint start = ex.now();
  for (const TortureStep& step : schedule.steps) {
    ex.schedule_at(start + step.at, [&apply, &step] { apply(step); });
  }
  ex.run_for(config.horizon);

  // Heal everything, then drain to quiescence.
  result.log.push_back(fmt_time(ex.now()) + " === heal all ===");
  net.clear_partitions();
  for (int i = 0; i < n; ++i) {
    auto m = static_cast<std::size_t>(i);
    hosts[m]->set_up(true);
    net.update_link(core, *hosts[m], base);
    members[m]->start();  // no-op unless a leave was left un-restarted
  }

  auto quiet = [&] {
    if (cell->bus().members().size() != static_cast<std::size_t>(n)) {
      return false;
    }
    if (cell->bus().max_proxy_backlog() != 0) return false;
    for (auto& m : members) {
      if (!m->joined() || m->client()->backlog() != 0) return false;
      // Publishes deferred under flow-control pressure must have flushed.
      if (m->offline_pending() != 0) return false;
    }
    return true;
  };

  TimePoint deadline = ex.now() + config.quiesce_cap;
  int stable = 0;
  bool barrage_done = false;
  while (ex.now() < deadline && (stable < 4 || !barrage_done)) {
    ex.run_for(milliseconds(500));
    stable = quiet() ? stable + 1 : 0;
    if (stable >= 4 && !barrage_done) {
      // One clean-network round: every member publishes once more, so
      // invariant (c) is exercised against the final membership too.
      barrage_done = true;
      stable = 0;
      result.log.push_back(fmt_time(ex.now()) + " === final barrage ===");
      for (int i = 0; i < n; ++i) {
        auto m = static_cast<std::size_t>(i);
        Event e("torture");
        e.set("n", pub_n[m]++);
        e.set("shard", i % 3);
        e.set("v", 50 + i);
        (void)members[m]->publish(std::move(e));
      }
    }
  }

  result.publishes = oracle.publishes();
  result.deliveries = oracle.deliveries();
  result.sheds = oracle.sheds();
  if (stable < 4 || !barrage_done) {
    std::ostringstream os;
    os << "network healed but the system did not quiesce within "
       << to_seconds(config.quiesce_cap) << "s: members="
       << cell->bus().members().size() << "/" << n
       << " proxy_backlog=" << cell->bus().max_proxy_backlog();
    for (int i = 0; i < n; ++i) {
      auto& m = members[static_cast<std::size_t>(i)];
      os << " m" << i << (m->joined() ? ":joined" : ":not-joined");
    }
    result.invariant = "failed-to-quiesce";
    result.violation = os.str();
    return result;
  }

  oracle.finish();
  if (oracle.violation()) {
    result.invariant = oracle.violation()->invariant;
    result.violation = oracle.violation()->detail;
    return result;
  }
  result.ok = true;
  return result;
}

std::string format_trace(const Schedule& schedule,
                         const TortureConfig& config,
                         const TortureResult& result) {
  std::ostringstream os;
  os << "torture trace\n"
     << "seed: " << schedule.seed << "\n"
     << "engine: " << amuse::to_string(config.engine) << "\n"
     << "quench: " << (config.quench ? "on" : "off") << "\n"
     << "members: " << config.members << "\n"
     << "horizon: " << to_seconds(config.horizon) << "s\n"
     << "publishes: " << result.publishes
     << " deliveries: " << result.deliveries << "\n"
     << "violation: [" << result.invariant << "] " << result.violation
     << "\n\nschedule (" << schedule.steps.size() << " steps):\n";
  for (const TortureStep& s : schedule.steps) {
    os << "  " << s.to_string() << "\n";
  }
  os << "\nrun log:\n";
  for (const std::string& line : result.log) os << "  " << line << "\n";
  return os.str();
}

}  // namespace amuse::torture
