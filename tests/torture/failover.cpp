#include "torture/failover.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"
#include "smc/standby.hpp"
#include "torture/oracle.hpp"

namespace amuse::torture {
namespace {

const Bytes kPsk = to_bytes("failover-torture-key");
constexpr const char* kCellName = "failover-cell";

std::string fmt_time(TimePoint t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << to_seconds(t.time_since_epoch()) << "s";
  return os.str();
}

}  // namespace

Schedule generate_failover_schedule(std::uint64_t seed,
                                    const FailoverConfig& config) {
  Schedule sched;
  sched.seed = seed;
  Rng rng(seed, /*stream=*/0xFA11);

  const double horizon_s = to_seconds(config.horizon);
  auto at = [&](double lo_s, double hi_s) {
    return from_seconds(rng.uniform(lo_s, hi_s));
  };
  auto push = [&](Duration t, TortureOp op, int member, int a = 0,
                  int b = 0) {
    sched.steps.push_back(TortureStep{t, op, member, a, b});
  };

  // One primary core incident per schedule, mid-horizon. The gap to the
  // heal comfortably exceeds the standbys' 1.5 s lease, so the promotion is
  // guaranteed to be underway when the old incarnation comes back (and must
  // then be fenced out). Crash schedules with at least two standbys roll a
  // CHAIN crash: the winner promotes, re-arms the survivors (§13.5 standby
  // chains), and then its own host dies too — a survivor must promote a
  // second time. Chain schedules start earlier so the second incident and
  // its revival still land inside the horizon.
  // Consume the rolls unconditionally: the schedule for a given seed must
  // not shift shape just because the standby count changed.
  bool chain_roll = rng.chance(0.35);
  bool split_roll = rng.chance(0.4);
  bool chain = config.standbys >= 2 && chain_roll;
  bool split = !chain && split_roll;
  Duration t0 = chain ? at(horizon_s * 0.25, horizon_s * 0.32)
                      : at(horizon_s * 0.35, horizon_s * 0.5);
  if (split) {
    push(t0, TortureOp::kSplitBrain, -1);
    push(t0 + at(3.0, 5.0), TortureOp::kHealPartition, -1);
  } else {
    push(t0, TortureOp::kCoreCrash, -1);
    push(t0 + at(4.0, 7.0), TortureOp::kCoreRevive, -1);
    if (chain) {
      Duration t1 = t0 + at(6.0, 7.5);
      push(t1, TortureOp::kChainCrash, -1);
      push(t1 + at(3.0, 4.5), TortureOp::kChainRevive, -1);
    }
  }

  // Overload cluster straddling the core incident: a stalled consumer's
  // proxy queue grows against the §9 delivery budgets while bursts keep
  // the §13 spool evicting, so shedding and staleness accounting run
  // DURING the promotion. The oracle's justification tally proves the two
  // ledgers compose — every missing delivery has exactly one excuse.
  int victim = static_cast<int>(
      rng.bounded(static_cast<std::uint32_t>(config.members)));
  push(t0 - from_seconds(1.5), TortureOp::kStall, victim);
  push(t0 - at(0.3, 1.2), TortureOp::kBurst, (victim + 1) % config.members,
       10 + static_cast<int>(rng.bounded(11)));
  push(t0 + at(0.2, 1.0), TortureOp::kBurst, (victim + 2) % config.members,
       10 + static_cast<int>(rng.bounded(11)));
  push(t0 + at(2.0, 4.0), TortureOp::kLinkHeal, victim);

  // Member-level incidents: the base torture mix minus subscription churn
  // (the failover rules reason about durable subscriptions surviving the
  // re-home) and minus group partitions (the split-brain op owns the
  // partition surface here).
  for (int i = 0; i < config.incidents; ++i) {
    int member = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(config.members)));
    double roll = rng.uniform();
    if (roll < 0.40) {
      push(at(0.2, horizon_s - 1.0), TortureOp::kBurst, member,
           1 + static_cast<int>(rng.bounded(8)));
    } else if (roll < 0.55) {
      Duration t = at(0.2, horizon_s - 8.0);
      push(t, TortureOp::kCrash, member);
      push(t + at(0.5, 7.0), TortureOp::kRecover, member);
    } else if (roll < 0.65) {
      Duration t = at(0.2, horizon_s - 6.0);
      push(t, TortureOp::kLeave, member);
      push(t + at(0.5, 4.0), TortureOp::kRestart, member);
    } else if (roll < 0.80) {
      Duration t = at(0.2, horizon_s - 7.0);
      bool bursty = rng.chance(0.4);
      push(t, TortureOp::kLinkFault, member,
           20 + static_cast<int>(rng.bounded(51)), bursty ? 1 : 0);
      push(t + at(1.0, 6.0), TortureOp::kLinkHeal, member);
    } else if (roll < 0.88) {
      Duration t = at(0.2, horizon_s - 7.0);
      push(t, TortureOp::kMtuSqueeze, member,
           150 + static_cast<int>(rng.bounded(551)));
      push(t + at(1.0, 6.0), TortureOp::kLinkHeal, member);
    } else {
      Duration t = at(0.2, horizon_s - 7.0);
      push(t, TortureOp::kStall, member);
      push(t + at(0.1, 1.0), TortureOp::kBurst,
           (member + 1) % config.members,
           8 + static_cast<int>(rng.bounded(13)));
      push(t + at(1.5, 6.0), TortureOp::kLinkHeal, member);
    }
  }
  std::stable_sort(sched.steps.begin(), sched.steps.end(),
                   [](const TortureStep& x, const TortureStep& y) {
                     return x.at < y.at;
                   });
  return sched;
}

TortureResult run_failover_torture(const Schedule& schedule,
                                   const FailoverConfig& config) {
  TortureResult result;

  SimExecutor ex;
  SimNetwork net(ex, schedule.seed ^ 0x9e3779b97f4a7c15ull);
  LinkModel base = profiles::usb_ip_link();
  base.latency_spread = milliseconds(30);
  net.set_default_link(base);
  SimHost& core = net.add_host("core", profiles::ideal_host());
  std::vector<SimHost*> standby_hosts;
  for (int i = 0; i < config.standbys; ++i) {
    standby_hosts.push_back(
        &net.add_host("standby" + std::to_string(i), profiles::ideal_host()));
  }

  // Same tight budgets as the base torture (DESIGN.md §9), plus a small HA
  // spool so the bounded-staleness budget actually evicts under bursts —
  // every eviction must surface as a staleness record, never silent loss.
  SmcCellConfig cc;
  cc.name = kCellName;
  cc.pre_shared_key = kPsk;
  cc.bus.engine = config.engine;
  cc.bus.quench = config.quench;
  cc.bus.ha = true;
  cc.bus.epoch = 1;
  cc.bus.ha_spool_events = 64;
  cc.bus.ha_spool_bytes = 16 * 1024;
  cc.bus.channel.max_fragment_payload = 512;
  cc.bus.channel.rto_initial = milliseconds(120);
  cc.bus.channel.rto_min = milliseconds(80);
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

  std::vector<std::unique_ptr<StandbyCore>> standbys;
  for (int i = 0; i < config.standbys; ++i) {
    StandbyCoreConfig sc;
    sc.agent.cell_name = kCellName;
    sc.agent.pre_shared_key = kPsk;
    sc.channel.rto_initial = milliseconds(120);
    sc.channel.rto_min = milliseconds(80);
    sc.require_quorum = config.require_quorum;
    sc.cell = cc;  // the promoted core inherits the same budgets
    SimHost& h = *standby_hosts[static_cast<std::size_t>(i)];
    standbys.push_back(std::make_unique<StandbyCore>(
        ex, net.create_endpoint(h), net.create_endpoint(h),
        net.create_endpoint(h), sc));
  }

  DeliveryOracle oracle;
  oracle.enable_ha_rules();
  oracle.attach(cell->bus(), [&ex] { return ex.now(); });
  // Promotion bookkeeping: the arbitration must elect at most one winner
  // per epoch (two promotions at the same epoch split the cell — the exact
  // failure quorum exists to prevent, and what the require_quorum revert
  // proof reproduces). Membership truth follows the HIGHEST promoted
  // epoch; a chain crash makes attach_promoted fire twice.
  std::set<std::uint64_t> promo_epochs;
  std::string double_promo;
  std::uint64_t top_epoch = 1;  // the original cell's epoch
  for (std::size_t i = 0; i < standbys.size(); ++i) {
    standbys[i]->set_on_promoted([&, i](SelfManagedCell& promoted) {
      std::uint64_t epoch = promoted.bus().epoch();
      result.log.push_back(fmt_time(ex.now()) + " === standby " +
                           std::to_string(i) + " promoted to epoch " +
                           std::to_string(epoch) + " ===");
      if (!promo_epochs.insert(epoch).second) {
        double_promo = "standby " + std::to_string(i) +
                       " promoted at epoch " + std::to_string(epoch) +
                       " which another standby had already claimed";
      }
      if (epoch > top_epoch) {
        top_epoch = epoch;
        oracle.attach_promoted(promoted.bus());
      }
    });
  }
  cell->start();
  for (auto& s : standbys) s->start();

  const int n = config.members;
  std::vector<SimHost*> hosts;
  std::vector<std::unique_ptr<SmcMember>> members;
  std::vector<std::int64_t> pub_n(static_cast<std::size_t>(n), 0);

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
    mc.agent.device_type = "failover.m" + std::to_string(i);
    mc.quench = config.quench;
    // Re-homing is fence-driven (the promoted epoch on the rival beacon),
    // so the loss timer is parked far out of the way: with the fence
    // reverted, nothing else rescues a stranded member within the run.
    // Recovery from a crash that straddled the purge goes through the
    // eviction notice (the core rejects the stale heartbeat), not the
    // loss timer, so this stays safe for member faults.
    mc.agent.cell_lost_after = seconds(60);
    mc.agent.fence_epochs = config.fence_epochs;
    mc.channel.max_fragment_payload = 512;
    mc.channel.rto_initial = milliseconds(120);
    mc.channel.rto_min = milliseconds(80);
    auto member = std::make_unique<SmcMember>(ex, net.create_endpoint(h), mc);
    SmcMember* m = member.get();
    std::size_t idx = static_cast<std::size_t>(i);
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

  LinkModel cut = base;
  cut.loss = 1.0;
  // Member link faults hit the path to EVERY core-capable host: a member
  // must not get a pristine link to the promoted core just because its
  // fault was struck against the old one.
  auto set_member_link = [&](std::size_t m, const LinkModel& lm) {
    net.update_link(core, *hosts[m], lm);
    for (SimHost* sh : standby_hosts) net.update_link(*sh, *hosts[m], lm);
  };

  // The currently active promoted standby (highest epoch), or -1 before
  // any promotion. kChainCrash targets whoever this is at fire time.
  auto active_standby = [&]() -> int {
    int best = -1;
    std::uint64_t best_epoch = 0;
    for (std::size_t i = 0; i < standbys.size(); ++i) {
      if (!standbys[i]->promoted()) continue;
      std::uint64_t e = standbys[i]->cell()->bus().epoch();
      if (e > best_epoch) {
        best_epoch = e;
        best = static_cast<int>(i);
      }
    }
    return best;
  };
  int chain_victim = -1;

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
        set_member_link(m, lm);
        break;
      }
      case TortureOp::kMtuSqueeze: {
        LinkModel lm = base;
        lm.mtu = static_cast<std::size_t>(s.a);
        set_member_link(m, lm);
        break;
      }
      case TortureOp::kLinkHeal:
        set_member_link(m, base);
        break;
      case TortureOp::kStall: {
        LinkModel lm = base;
        lm.loss = 1.0;
        net.update_link_oneway(core, *hosts[m], lm);
        for (SimHost* sh : standby_hosts) {
          net.update_link_oneway(*sh, *hosts[m], lm);
        }
        break;
      }
      case TortureOp::kBurst:
        for (int k = 0; k < s.a; ++k) {
          Event e("torture");
          e.set("n", pub_n[m]++);
          e.set("shard", (s.member + k) % 3);
          e.set("v", (s.a * 7 + k * 13 + s.member * 3) % 100);
          (void)members[m]->publish(std::move(e));
        }
        break;
      case TortureOp::kCoreCrash:
        core.set_up(false);
        oracle.core_incident(ex.now());
        oracle.repl_severed();
        break;
      case TortureOp::kCoreRevive:
        // The old incarnation comes back at the dead epoch: it must fence
        // itself out (step down on the rival's beacon), not resume.
        core.set_up(true);
        break;
      case TortureOp::kSplitBrain:
        // Everyone stays up; only the replication/lease paths to the
        // standbys are cut (standby ⟷ standby stays intact — arbitration
        // must still elect exactly one winner). The winner promotes while
        // the old core still serves whoever has not fenced over yet —
        // everything it routes from here must end up delivered or
        // staleness-accounted (step-down drains the spool), so no oracle
        // window is needed. Admissions the old core accepts from here on
        // can no longer reach the replicas, though — repl_severed()
        // exempts exactly those members from F3.
        for (SimHost* sh : standby_hosts) net.update_link(core, *sh, cut);
        oracle.repl_severed();
        break;
      case TortureOp::kHealPartition:
        for (SimHost* sh : standby_hosts) net.update_link(core, *sh, base);
        break;
      case TortureOp::kChainCrash: {
        // Kill whoever is the active core NOW — the promoted winner's
        // host. A surviving standby, re-armed through the chain, must
        // promote again. (Before any promotion this is a no-op; the
        // no-chain-promotion check below then flags the schedule.)
        int victim = active_standby();
        if (victim >= 0) {
          chain_victim = victim;
          standby_hosts[static_cast<std::size_t>(victim)]->set_up(false);
          oracle.core_incident(ex.now());
          oracle.repl_severed();
        }
        break;
      }
      case TortureOp::kChainRevive:
        if (chain_victim >= 0) {
          standby_hosts[static_cast<std::size_t>(chain_victim)]->set_up(true);
        }
        break;
      case TortureOp::kPartition:
      case TortureOp::kSubAdd:
      case TortureOp::kSubDrop:
        break;  // never generated for failover schedules
    }
  };

  // Let the cell form (members join, standby syncs its first snapshot).
  ex.run_for(seconds(2));
  TimePoint start = ex.now();
  for (const TortureStep& step : schedule.steps) {
    ex.schedule_at(start + step.at, [&apply, &step] { apply(step); });
  }
  ex.run_for(config.horizon);

  // Heal everything, then drain to quiescence against the CURRENT core.
  result.log.push_back(fmt_time(ex.now()) + " === heal all ===");
  core.set_up(true);
  for (SimHost* sh : standby_hosts) {
    sh->set_up(true);
    net.update_link(core, *sh, base);
  }
  for (int i = 0; i < n; ++i) {
    auto m = static_cast<std::size_t>(i);
    hosts[m]->set_up(true);
    set_member_link(m, base);
    members[m]->start();  // no-op unless a leave was left un-restarted
  }

  auto current_bus = [&]() -> EventBus& {
    int active = active_standby();
    return active >= 0
               ? standbys[static_cast<std::size_t>(active)]->cell()->bus()
               : cell->bus();
  };

  // Standby-role members ride in member_info_ too (the loser of an
  // arbitration re-homes to the winner as a standby member), so liveness
  // counts only the serving members. Same for the backlog: a standby
  // proxy's channel carries the 400 ms repl lease stream, which never
  // ceases by design — an in-flight lease renewal is steady-state
  // traffic, not un-drained backlog.
  auto serving_members = [](EventBus& bus) {
    std::size_t count = 0;
    for (const MemberInfo& mi : bus.members()) {
      if (mi.role != kStandbyRole) ++count;
    }
    return count;
  };
  auto serving_backlog = [](EventBus& bus) {
    std::size_t worst = 0;
    for (const MemberInfo& mi : bus.members()) {
      if (mi.role == kStandbyRole) continue;
      Proxy* p = bus.proxy_for(mi.id);
      if (p != nullptr) worst = std::max(worst, p->pending());
    }
    return worst;
  };

  auto quiet = [&] {
    EventBus& bus = current_bus();
    if (serving_members(bus) != static_cast<std::size_t>(n)) return false;
    if (serving_backlog(bus) != 0) return false;
    for (auto& m : members) {
      if (!m->joined() || m->client()->backlog() != 0) return false;
      if (m->offline_pending() != 0) return false;
      // Joined is not enough after a failover: the promoted bus restores
      // the full membership from the replica, so its member count looks
      // right even while a member is still homed to the dead incarnation.
      // Liveness means every member agrees on WHICH core it talks to.
      if (m->agent().bus_id() != bus.bus_id()) return false;
    }
    // Standby chains: every surviving (never-promoted) standby must have
    // re-armed against the current core — homed to it AND mirroring at
    // its epoch. This makes re-arm a per-run liveness obligation, not
    // something only the chain schedules exercise.
    for (auto& s : standbys) {
      if (s->promoted()) continue;  // the active core, or a fenced winner
      if (!s->synced()) return false;
      if (s->agent().bus_id() != bus.bus_id()) return false;
      if (s->mirror().epoch() != bus.epoch()) return false;
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
  std::uint64_t total_promotions = 0;
  std::uint64_t total_applied = 0;
  std::uint64_t total_resyncs = 0;
  for (auto& s : standbys) {
    total_promotions += s->stats().promotions;
    total_applied += s->stats().updates_applied;
    total_resyncs += s->stats().resyncs;
  }
  if (total_promotions == 0) {
    // Every schedule kills the repl stream for longer than the lease: a
    // run without a promotion means the failover machinery never engaged.
    result.invariant = "no-promotion";
    result.violation =
        "the core incident never expired any standby's lease (applied=" +
        std::to_string(total_applied) + " resyncs=" +
        std::to_string(total_resyncs) + ")";
    return result;
  }
  if (!double_promo.empty()) {
    result.invariant = "double-promotion";
    result.violation = double_promo;
    return result;
  }
  bool has_chain = std::any_of(
      schedule.steps.begin(), schedule.steps.end(), [](const TortureStep& s) {
        return s.op == TortureOp::kChainCrash;
      });
  if (has_chain && total_promotions < 2) {
    // The chain crash killed the promoted winner; a survivor had a synced
    // mirror and an expired lease, so a second promotion is mandatory.
    result.invariant = "no-chain-promotion";
    result.violation =
        "the chain crash did not produce a second promotion (promotions=" +
        std::to_string(total_promotions) + ")";
    return result;
  }
  if (stable < 4 || !barrage_done) {
    std::ostringstream os;
    os << "network healed but the system did not quiesce within "
       << to_seconds(config.quiesce_cap)
       << "s on the promoted core: members=" << serving_members(current_bus())
       << "/" << n << " proxy_backlog=" << serving_backlog(current_bus());
    for (int i = 0; i < n; ++i) {
      auto& m = members[static_cast<std::size_t>(i)];
      if (!m->joined()) {
        os << " m" << i << ":not-joined";
      } else if (m->agent().bus_id() != current_bus().bus_id()) {
        os << " m" << i << ":stranded-on-old-core";
      } else {
        os << " m" << i << ":joined";
      }
    }
    for (const MemberInfo& mi : current_bus().members()) {
      Proxy* p = current_bus().proxy_for(mi.id);
      if (p != nullptr && p->pending() != 0) {
        os << " backlog[" << mi.device_type << "/" << mi.role << "@"
           << mi.id.to_string() << "]=" << p->pending();
      }
    }
    for (std::size_t i = 0; i < standbys.size(); ++i) {
      auto& s = standbys[i];
      if (s->promoted()) {
        os << " s" << i << ":promoted";
      } else if (!s->synced()) {
        os << " s" << i << ":unsynced";
      } else if (s->agent().bus_id() != current_bus().bus_id()) {
        os << " s" << i << ":stranded-on-old-core";
      } else if (s->mirror().epoch() != current_bus().epoch()) {
        os << " s" << i << ":stale-epoch";
      } else {
        os << " s" << i << ":armed";
      }
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

}  // namespace amuse::torture
