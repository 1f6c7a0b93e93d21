#include "torture/multicell.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "hostmodel/profiles.hpp"
#include "net/link_profiles.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/gateway.hpp"
#include "smc/member.hpp"

namespace amuse::torture {
namespace {

struct Edge {
  int x;
  int y;
};

struct Layout {
  int cells = 0;
  std::vector<Edge> edges;
};

Layout layout_for(McTopology t) {
  switch (t) {
    case McTopology::kLine:
      return {4, {{0, 1}, {1, 2}, {2, 3}}};
    case McTopology::kTree:
      return {4, {{0, 1}, {0, 2}, {1, 3}}};
    case McTopology::kCycle:
      return {3, {{0, 1}, {1, 2}, {2, 0}}};
  }
  return {0, {}};
}

std::string fmt_time(TimePoint t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << to_seconds(t.time_since_epoch()) << "s";
  return os.str();
}

/// Cross-cell ground truth: every delivery funnels through here.
class McOracle {
 public:
  struct Violation {
    std::string invariant;
    std::string detail;
  };

  void set_cell_ids(std::vector<std::uint64_t> ids) {
    cell_ids_ = std::move(ids);
  }

  void on_publish(int sender, std::int64_t n) {
    ++publishes_;
    (void)sender;
    (void)n;
  }

  void on_delivery(int receiver, int receiver_cell, std::uint64_t incarnation,
                   const Event& e) {
    ++deliveries_;
    auto sender = e.get_int("m", -1);
    auto n = e.get_int("n", -1);
    auto sender_cell = e.get_int("c", -1);
    if (sender < 0 || n < 0 || sender_cell < 0) {
      fail("phantom-event", "delivery without sender attributes at member " +
                                std::to_string(receiver));
      return;
    }
    if (sender_cell != receiver_cell) ++cross_cell_;

    // (d) origin-stamp discipline: the stamp is immutable and names the
    // true origin cell; a stamp naming the *receiver's* cell on a
    // cross-cell delivery means a federated loop came home.
    const Origin& origin = e.origin();
    const std::uint64_t stamp = origin.cell.raw();
    if (!origin.stamped() || origin.seq == 0) {
      fail("missing-origin-stamp",
           "event (m=" + std::to_string(sender) + ", n=" + std::to_string(n) +
               ") delivered without an origin stamp");
      return;
    }
    if (stamp != cell_ids_[static_cast<std::size_t>(sender_cell)]) {
      fail("wrong-origin-stamp",
           "event (m=" + std::to_string(sender) + ", n=" + std::to_string(n) +
               ") stamped with a cell other than its origin");
      return;
    }
    if (sender_cell != receiver_cell &&
        stamp == cell_ids_[static_cast<std::size_t>(receiver_cell)]) {
      fail("federated-loop", "event (m=" + std::to_string(sender) +
                                 ", n=" + std::to_string(n) +
                                 ") looped home to its origin cell");
      return;
    }

    // (a) no duplicate delivery, ever — across incarnations and no matter
    // how many gateway paths carried it.
    if (!seen_.insert({receiver, sender, n}).second) {
      fail("duplicate-delivery",
           "member " + std::to_string(receiver) + " saw (m=" +
               std::to_string(sender) + ", n=" + std::to_string(n) +
               ") twice");
      return;
    }

    // (b) per-sender FIFO end-to-end within a receiver incarnation.
    auto key = std::tuple{receiver, incarnation, sender};
    auto it = fifo_.find(key);
    if (it != fifo_.end() && n <= it->second) {
      fail("fifo", "member " + std::to_string(receiver) + " inc " +
                       std::to_string(incarnation) + " saw (m=" +
                       std::to_string(sender) + ") n=" + std::to_string(n) +
                       " after n=" + std::to_string(it->second));
      return;
    }
    fifo_[key] = n;
  }

  /// (c) post-heal completeness: every barrage publish must have reached
  /// every member.
  void check_barrage(const std::vector<std::pair<int, std::int64_t>>& barrage,
                     int members) {
    for (const auto& [sender, n] : barrage) {
      for (int r = 0; r < members; ++r) {
        if (!seen_.contains({r, sender, n})) {
          fail("lost-delivery",
               "post-heal barrage event (m=" + std::to_string(sender) +
                   ", n=" + std::to_string(n) + ") never reached member " +
                   std::to_string(r));
          return;
        }
      }
    }
  }

  [[nodiscard]] const std::optional<Violation>& violation() const {
    return violation_;
  }
  [[nodiscard]] std::uint64_t publishes() const { return publishes_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t cross_cell() const { return cross_cell_; }

 private:
  void fail(std::string invariant, std::string detail) {
    if (violation_) return;  // keep the first
    violation_ = Violation{std::move(invariant), std::move(detail)};
  }

  std::vector<std::uint64_t> cell_ids_;
  std::set<std::tuple<int, std::int64_t, std::int64_t>> seen_;
  std::map<std::tuple<int, std::uint64_t, std::int64_t>, std::int64_t> fifo_;
  std::uint64_t publishes_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t cross_cell_ = 0;
  std::optional<Violation> violation_;
};

}  // namespace

const char* to_string(McTopology t) {
  switch (t) {
    case McTopology::kLine: return "line";
    case McTopology::kTree: return "tree";
    case McTopology::kCycle: return "cycle";
  }
  return "?";
}

const char* to_string(McOp op) {
  switch (op) {
    case McOp::kBurst: return "burst";
    case McOp::kGwCrash: return "gw-crash";
    case McOp::kGwRecover: return "gw-recover";
    case McOp::kMemberCrash: return "member-crash";
    case McOp::kMemberRecover: return "member-recover";
    case McOp::kLinkFault: return "link-fault";
    case McOp::kLinkHeal: return "link-heal";
  }
  return "?";
}

std::string McStep::to_string() const {
  std::ostringstream os;
  os << "@" << std::fixed << std::setprecision(3) << to_seconds(at) << "s "
     << torture::to_string(op) << " target=" << target;
  if (a != 0) os << " a=" << a;
  return os.str();
}

McSchedule generate_multicell_schedule(std::uint64_t seed,
                                       const McConfig& config) {
  McSchedule sched;
  sched.seed = seed;
  Rng rng(seed, /*stream=*/0x3C31);

  Layout layout = layout_for(config.topology);
  const int links = static_cast<int>(layout.edges.size());
  const int members = layout.cells * config.members_per_cell;
  const double horizon_s = to_seconds(config.horizon);
  auto push = [&](Duration t, McOp op, int target, int a = 0) {
    sched.steps.push_back(McStep{t, op, target, a});
  };

  // Faults first, bursts second: on the cycle topology, a burst must never
  // land inside a gateway blackout window, or multipath first-arrival-wins
  // can legitimately reorder a sender's stream (invariant (b) relies on
  // "no path silently drops").
  struct Window {
    double lo;
    double hi;
  };
  std::vector<Window> blackouts;
  int bursts_wanted = 0;

  for (int i = 0; i < config.incidents; ++i) {
    double roll = rng.uniform();
    if (roll < 0.45) {
      ++bursts_wanted;
    } else if (roll < 0.65) {
      int link = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(links)));
      double t = rng.uniform(0.5, horizon_s - 10.0);
      double d = rng.uniform(0.8, 8.0);  // sometimes straddles the purge
      push(from_seconds(t), McOp::kGwCrash, link);
      push(from_seconds(t + d), McOp::kGwRecover, link);
      blackouts.push_back({t - 1.2, t + d + 10.0});
    } else if (roll < 0.80) {
      int m = static_cast<int>(
          rng.bounded(static_cast<std::uint32_t>(members)));
      double t = rng.uniform(0.5, horizon_s - 10.0);
      push(from_seconds(t), McOp::kMemberCrash, m);
      push(from_seconds(t + rng.uniform(0.8, 8.0)), McOp::kMemberRecover, m);
    } else {
      int link = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(links)));
      double t = rng.uniform(0.5, horizon_s - 8.0);
      push(from_seconds(t), McOp::kLinkFault, link,
           20 + static_cast<int>(rng.bounded(41)));
      push(from_seconds(t + rng.uniform(1.0, 6.0)), McOp::kLinkHeal, link);
    }
  }

  auto blocked = [&](double t) {
    return std::ranges::any_of(blackouts, [&](const Window& w) {
      return t >= w.lo && t <= w.hi;
    });
  };
  for (int i = 0; i < bursts_wanted; ++i) {
    int m =
        static_cast<int>(rng.bounded(static_cast<std::uint32_t>(members)));
    int count = 1 + static_cast<int>(rng.bounded(5));
    for (int attempt = 0; attempt < 24; ++attempt) {
      double t = rng.uniform(0.3, horizon_s - 1.0);
      if (config.topology == McTopology::kCycle && blocked(t)) continue;
      push(from_seconds(t), McOp::kBurst, m, count);
      break;
    }  // a fully-blacked-out horizon just drops the burst
  }

  std::stable_sort(
      sched.steps.begin(), sched.steps.end(),
      [](const McStep& a, const McStep& b) { return a.at < b.at; });
  return sched;
}

McResult run_multicell(const McSchedule& schedule, const McConfig& config) {
  McResult result;
  Layout layout = layout_for(config.topology);
  const int n_cells = layout.cells;
  const int per_cell = config.members_per_cell;
  const int n_members = n_cells * per_cell;
  const int n_links = static_cast<int>(layout.edges.size());

  SimExecutor ex;
  SimNetwork net(ex, schedule.seed ^ 0xfeedc0de12345678ull);
  LinkModel base = profiles::usb_ip_link();
  net.set_default_link(base);

  // One core host per cell, each cell with its own name and PSK.
  std::vector<SimHost*> cores;
  std::vector<std::unique_ptr<SelfManagedCell>> cells;
  for (int c = 0; c < n_cells; ++c) {
    SimHost& h = net.add_host("core" + std::to_string(c),
                              profiles::ideal_host());
    cores.push_back(&h);
    SmcCellConfig cc;
    cc.name = "mc-cell-" + std::to_string(c);
    cc.pre_shared_key = to_bytes("mc-key-" + std::to_string(c));
    cc.bus.engine = config.engine;
    cc.discovery.beacon_interval = milliseconds(300);
    cc.discovery.heartbeat_interval = milliseconds(300);
    cc.discovery.suspect_after = milliseconds(1200);
    cc.discovery.purge_after = seconds(3);
    cc.discovery.sweep_interval = milliseconds(150);
    auto cell = std::make_unique<SelfManagedCell>(
        ex, net.create_endpoint(h), net.create_endpoint(h), cc);
    cell->start();
    cells.push_back(std::move(cell));
  }

  McOracle oracle;
  {
    std::vector<std::uint64_t> ids;
    for (auto& c : cells) ids.push_back(c->bus().bus_id().raw());
    oracle.set_cell_ids(std::move(ids));
  }

  auto member_config = [&](int cell, const std::string& device,
                           const char* role) {
    SmcMemberConfig mc;
    mc.agent.cell_name = "mc-cell-" + std::to_string(cell);
    mc.agent.pre_shared_key = to_bytes("mc-key-" + std::to_string(cell));
    mc.agent.device_type = device;
    mc.agent.role = role;
    mc.agent.cell_lost_after = seconds(2);
    mc.offline_buffer = 128;
    return mc;
  };

  // Ordinary members: per_cell per cell, each on its own host, one broad
  // recorder subscription each.
  std::vector<SimHost*> member_hosts;
  std::vector<std::unique_ptr<SmcMember>> members;
  std::vector<int> member_cell;
  std::vector<std::int64_t> pub_n(static_cast<std::size_t>(n_members), 0);
  for (int c = 0; c < n_cells; ++c) {
    for (int j = 0; j < per_cell; ++j) {
      int uid = c * per_cell + j;
      SimHost& h = net.add_host(
          "c" + std::to_string(c) + "m" + std::to_string(j),
          profiles::ideal_host());
      member_hosts.push_back(&h);
      auto member = std::make_unique<SmcMember>(
          ex, net.create_endpoint(h),
          member_config(c, "mc.m" + std::to_string(uid), ""));
      SmcMember* m = member.get();
      (void)m->subscribe(Filter::for_type("mc"), [&oracle, m, uid,
                                                  c](const Event& e) {
        oracle.on_delivery(uid, c, m->stats().joins, e);
      });
      m->start();
      members.push_back(std::move(member));
      member_cell.push_back(c);
    }
  }

  // Gateway links: one dual-homed host per edge, two members (one per
  // cell), two gateways (one per direction).
  std::vector<SimHost*> gw_hosts;
  std::vector<std::unique_ptr<SmcMember>> gw_members;   // 2 per link
  std::vector<std::unique_ptr<FederationGateway>> gateways;  // 2 per link
  for (int l = 0; l < n_links; ++l) {
    const Edge& e = layout.edges[static_cast<std::size_t>(l)];
    SimHost& h = net.add_host("gw" + std::to_string(l),
                              profiles::ideal_host());
    gw_hosts.push_back(&h);
    auto mx = std::make_unique<SmcMember>(
        ex, net.create_endpoint(h),
        member_config(e.x, "gateway", kGatewayRole.data()));
    auto my = std::make_unique<SmcMember>(
        ex, net.create_endpoint(h),
        member_config(e.y, "gateway", kGatewayRole.data()));
    gateways.push_back(std::make_unique<FederationGateway>(*mx, *my));
    gateways.push_back(std::make_unique<FederationGateway>(*my, *mx));
    mx->start();
    my->start();
    gw_members.push_back(std::move(mx));
    gw_members.push_back(std::move(my));
  }

  auto log_step = [&](const McStep& s) {
    result.log.push_back(fmt_time(ex.now()) + " " + s.to_string());
  };

  auto apply = [&](const McStep& s) {
    log_step(s);
    switch (s.op) {
      case McOp::kBurst: {
        auto m = static_cast<std::size_t>(s.target);
        for (int k = 0; k < s.a; ++k) {
          Event e("mc");
          e.set("m", s.target);
          e.set("n", pub_n[m]);
          e.set("c", member_cell[m]);
          oracle.on_publish(s.target, pub_n[m]);
          ++pub_n[m];
          (void)members[m]->publish(std::move(e));
        }
        break;
      }
      case McOp::kGwCrash:
        gw_hosts[static_cast<std::size_t>(s.target)]->set_up(false);
        break;
      case McOp::kGwRecover:
        gw_hosts[static_cast<std::size_t>(s.target)]->set_up(true);
        break;
      case McOp::kMemberCrash:
        member_hosts[static_cast<std::size_t>(s.target)]->set_up(false);
        break;
      case McOp::kMemberRecover:
        member_hosts[static_cast<std::size_t>(s.target)]->set_up(true);
        break;
      case McOp::kLinkFault: {
        LinkModel lm = base;
        lm.loss = static_cast<double>(s.a) / 100.0;
        const Edge& e = layout.edges[static_cast<std::size_t>(s.target)];
        SimHost* gw = gw_hosts[static_cast<std::size_t>(s.target)];
        net.update_link(*gw, *cores[static_cast<std::size_t>(e.x)], lm);
        net.update_link(*gw, *cores[static_cast<std::size_t>(e.y)], lm);
        break;
      }
      case McOp::kLinkHeal: {
        const Edge& e = layout.edges[static_cast<std::size_t>(s.target)];
        SimHost* gw = gw_hosts[static_cast<std::size_t>(s.target)];
        net.update_link(*gw, *cores[static_cast<std::size_t>(e.x)], base);
        net.update_link(*gw, *cores[static_cast<std::size_t>(e.y)], base);
        break;
      }
    }
  };

  // Let every cell form and the interest tables converge transitively.
  ex.run_for(seconds(4));
  TimePoint start = ex.now();
  for (const McStep& step : schedule.steps) {
    ex.schedule_at(start + step.at, [&apply, &step] { apply(step); });
  }
  ex.run_for(config.horizon);

  result.log.push_back(fmt_time(ex.now()) + " === heal all ===");
  for (SimHost* h : gw_hosts) h->set_up(true);
  for (SimHost* h : member_hosts) h->set_up(true);
  for (int l = 0; l < n_links; ++l) {
    const Edge& e = layout.edges[static_cast<std::size_t>(l)];
    SimHost* gw = gw_hosts[static_cast<std::size_t>(l)];
    net.update_link(*gw, *cores[static_cast<std::size_t>(e.x)], base);
    net.update_link(*gw, *cores[static_cast<std::size_t>(e.y)], base);
  }

  std::vector<int> degree(static_cast<std::size_t>(n_cells), 0);
  for (const Edge& e : layout.edges) {
    ++degree[static_cast<std::size_t>(e.x)];
    ++degree[static_cast<std::size_t>(e.y)];
  }
  auto quiet = [&] {
    for (int c = 0; c < n_cells; ++c) {
      auto expect = static_cast<std::size_t>(per_cell) +
                    static_cast<std::size_t>(degree[static_cast<std::size_t>(c)]);
      if (cells[static_cast<std::size_t>(c)]->bus().members().size() != expect) {
        return false;
      }
      if (cells[static_cast<std::size_t>(c)]->bus().max_proxy_backlog() != 0) {
        return false;
      }
    }
    auto settled = [](const std::unique_ptr<SmcMember>& m) {
      return m->joined() && m->client()->backlog() == 0 &&
             m->offline_pending() == 0;
    };
    if (!std::ranges::all_of(members, settled)) return false;
    if (!std::ranges::all_of(gw_members, settled)) return false;
    // Interest-driven routing must be live on every directed link.
    return std::ranges::all_of(gateways, [](const auto& g) {
      return g->interest_subscriptions() > 0;
    });
  };

  auto drain = [&](TimePoint deadline) {
    int stable = 0;
    std::uint64_t last = oracle.deliveries();
    while (ex.now() < deadline && stable < 4) {
      ex.run_for(milliseconds(500));
      bool still = quiet() && oracle.deliveries() == last;
      last = oracle.deliveries();
      stable = still ? stable + 1 : 0;
    }
    return stable >= 4;
  };

  auto collect = [&] {
    result.publishes = oracle.publishes();
    result.deliveries = oracle.deliveries();
    result.cross_cell = oracle.cross_cell();
    for (auto& c : cells) {
      result.fed_dups_dropped += c->bus().stats().fed_duplicates_dropped;
      result.fed_suppressed += c->bus().stats().fed_events_suppressed;
    }
  };

  TimePoint deadline = ex.now() + config.quiesce_cap;
  if (!drain(deadline)) {
    collect();
    std::ostringstream os;
    os << "overlay healed but did not quiesce within "
       << to_seconds(config.quiesce_cap) << "s:";
    for (int c = 0; c < n_cells; ++c) {
      os << " cell" << c << "="
         << cells[static_cast<std::size_t>(c)]->bus().members().size();
    }
    std::size_t gws = 0;
    for (auto& g : gateways) gws += g->interest_subscriptions() > 0 ? 1 : 0;
    os << " live-gateways=" << gws << "/" << gateways.size();
    result.invariant = "failed-to-quiesce";
    result.violation = os.str();
    return result;
  }

  // Post-heal barrage: every member publishes on the fully-live overlay;
  // invariant (c) demands full-mesh delivery.
  result.log.push_back(fmt_time(ex.now()) + " === final barrage ===");
  std::vector<std::pair<int, std::int64_t>> barrage;
  for (int m = 0; m < n_members; ++m) {
    auto idx = static_cast<std::size_t>(m);
    for (int k = 0; k < 2; ++k) {
      Event e("mc");
      e.set("m", m);
      e.set("n", pub_n[idx]);
      e.set("c", member_cell[idx]);
      oracle.on_publish(m, pub_n[idx]);
      barrage.emplace_back(m, pub_n[idx]);
      ++pub_n[idx];
      (void)members[idx]->publish(std::move(e));
    }
  }
  if (!drain(deadline)) {
    collect();
    result.invariant = "failed-to-quiesce";
    result.violation = "post-barrage deliveries never settled";
    return result;
  }

  oracle.check_barrage(barrage, n_members);
  collect();
  if (oracle.violation()) {
    result.invariant = oracle.violation()->invariant;
    result.violation = oracle.violation()->detail;
    return result;
  }
  result.ok = true;
  return result;
}

std::string format_multicell_trace(const McSchedule& schedule,
                                   const McConfig& config,
                                   const McResult& result) {
  std::ostringstream os;
  os << "multicell torture trace\n"
     << "seed: " << schedule.seed << "\n"
     << "topology: " << to_string(config.topology) << "\n"
     << "engine: " << amuse::to_string(config.engine) << "\n"
     << "publishes: " << result.publishes
     << " deliveries: " << result.deliveries
     << " cross-cell: " << result.cross_cell
     << " fed-dups-dropped: " << result.fed_dups_dropped
     << " fed-suppressed: " << result.fed_suppressed << "\n"
     << "violation: [" << result.invariant << "] " << result.violation
     << "\n\nschedule (" << schedule.steps.size() << " steps):\n";
  for (const McStep& s : schedule.steps) os << "  " << s.to_string() << "\n";
  os << "\nrun log:\n";
  for (const std::string& line : result.log) os << "  " << line << "\n";
  return os.str();
}

}  // namespace amuse::torture
