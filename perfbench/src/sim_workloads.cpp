// The two simulated-network workloads: a full SelfManagedCell on a
// single-threaded SimExecutor with zero-cost hosts and zero-latency,
// lossless links, so every measured microsecond is the stack's own code.
//
// Virtual time only paces the protocol timers (delayed acks, heartbeats):
// each closed-loop round publishes, steps the simulation until the oracle
// has seen every expected delivery, then advances the clock by kRoundGap.
//
// ward_vitals      32 vitals sensors -> 8 monitors with a handful of type /
//                  prefix / threshold subscriptions, obligation policies
//                  raising alarms. Per-message cost dominates.
// alarm_thresholds 16 bedside hubs -> 64 care consoles holding >= 10k
//                  per-patient alarm subscriptions; a fixed share of
//                  operations are threshold updates. Matching dominates.
#include <chrono>

#include "bench.hpp"
#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "smc/cell.hpp"
#include "smc/member.hpp"

namespace perfbench {
namespace {

using amuse::Event;
using amuse::Filter;
using amuse::Op;
using amuse::Rng;
using namespace std::chrono_literals;

constexpr amuse::Duration kRoundGap = std::chrono::milliseconds(5);
constexpr amuse::Duration kStallLimit = std::chrono::seconds(30);
// An untraced run repeats its set-up at least kMinSetups times and for at
// least kSetupBudgetNs; setup_s is the median. A traced run sets up once.
constexpr int kMinSetups = 31;
constexpr std::int64_t kSetupBudgetNs = 2'000'000'000;
constexpr double kWarmupShare = 0.1;
constexpr int kSlices = 20;

const char* kPolicies = R"(
  policy cardiac on vitals.heartrate when hr > 120
    do publish alarm.cardiac { hr = hr, patient = patient, pub = pub, pseq = pseq };
  policy desat on vitals.spo2 when spo2 < 90
    do publish alarm.desat { spo2 = spo2, patient = patient, pub = pub, pseq = pseq };
  policy fever on vitals.temperature when temp_c > 38.5
    do publish alarm.fever { temp_c = temp_c, patient = patient, pub = pub, pseq = pseq };
  auth permit role "sensor" publish "vitals.*";
  auth permit role "sensor" publish "obs.*";
  auth permit role "monitor" subscribe "vitals.*";
  auth permit role "monitor" subscribe "alarm.*";
  auth permit role "nurse" subscribe "obs.*";
  auth default deny;
)";

/// One simulated cell: core host (bus + discovery + policy) and an edge
/// host carrying every member, all zero-cost.
struct SimWorld {
  SimWorld(std::uint64_t seed, bool tracing)
      : traced_run(tracing),
        tex(sim, Domain::kCore),
        ex(tracing ? static_cast<amuse::Executor&>(tex) : sim),
        net(ex, seed) {
    amuse::LinkModel link;
    link.latency_min = amuse::Duration{};
    link.latency_spread = amuse::Duration{};
    link.bandwidth_bps = 0;
    net.set_default_link(link);
    core = &net.add_host("core", amuse::CostModel{});
    edge = &net.add_host("edge", amuse::CostModel{});
    amuse::SmcCellConfig cfg;
    cfg.name = "ward";
    cfg.pre_shared_key = amuse::to_bytes("perfbench-ward-key");
    cfg.discovery.beacon_interval = 100ms;
    cell = std::make_unique<amuse::SelfManagedCell>(
        ex, traced(traced_run, net.create_endpoint(*core), EndpointRole::kCoreBus),
        traced(traced_run, net.create_endpoint(*core), EndpointRole::kCoreDisco),
        cfg);
    cell->load_policies(kPolicies);
    cell->start();
  }

  void add_member(const std::string& type,
                               const std::string& role, int subscriber,
                               Tracer* tracer) {
    amuse::SmcMemberConfig mc;
    mc.agent.cell_name = "ward";
    mc.agent.pre_shared_key = amuse::to_bytes("perfbench-ward-key");
    mc.agent.device_type = type;
    mc.agent.role = role;
    mc.agent.seed = 0x5eed0000 + members.size();
    auto ep = net.create_endpoint(*edge);
    if (tracer != nullptr && subscriber >= 0) {
      tracer->set_member_index(ep->local_id().raw(), subscriber);
    }
    members.push_back(std::make_unique<amuse::SmcMember>(
        ex, traced(traced_run, ep, EndpointRole::kMember, subscriber), mc));
  }

  /// Starts every member and runs until all have joined; returns false on
  /// a stall.
  bool join_all() {
    for (auto& m : members) m->start();
    amuse::TimePoint limit = sim.now() + kStallLimit;
    for (;;) {
      bool all = true;
      for (auto& m : members) all = all && m->joined();
      if (all) return true;
      if (sim.now() > limit) return false;
      sim.run_until(sim.now() + 10ms);
    }
  }

  /// Steps until `done()` holds; false when virtual time passes the stall
  /// limit first.
  template <typename Pred>
  bool step_until(Pred done) {
    amuse::TimePoint limit = sim.now() + kStallLimit;
    while (!done()) {
      bool stepped = false;
      {
        ScopedSpan span(SpanKind::kStep);
        stepped = sim.step();
      }
      if (!stepped || sim.now() > limit) return done();
    }
    return true;
  }

  /// Advances virtual time by one round gap, running the timers due.
  void idle_round() {
    ScopedSpan span(SpanKind::kStep);
    sim.run_until(sim.now() + kRoundGap);
  }

  bool traced_run;
  amuse::SimExecutor sim;
  TracingExecutor tex;
  amuse::Executor& ex;
  amuse::SimNetwork net;
  amuse::SimHost* core = nullptr;
  amuse::SimHost* edge = nullptr;
  std::unique_ptr<amuse::SelfManagedCell> cell;
  std::vector<std::unique_ptr<amuse::SmcMember>> members;
};

/// Routes the traced run's authorisation decisions through the cell's own
/// AuthorisationService while capturing (role, op, topic) for the replay.
void capture_authorisation(amuse::SelfManagedCell& cell, Tracer* tracer) {
  if (tracer == nullptr) return;
  amuse::AuthorisationService& auth = cell.authorisation();
  cell.bus().set_authoriser([&auth, tracer](const amuse::MemberInfo& m,
                                            amuse::AuthAction a,
                                            std::string_view topic) {
    bool publish = a == amuse::AuthAction::kPublish;
    if (Tracer::active() != nullptr) tracer->capture_auth(m.role, publish, topic);
    return auth.check(m.role,
                      publish ? amuse::AuthOp::kPublish
                              : amuse::AuthOp::kSubscribe,
                      std::string(topic));
  });
}

/// Moves the thread to the CPU of the run's next set-up and returns true,
/// or returns false when the run has made all its set-ups (see
/// kMinSetups). Set-up i runs on allowed CPU i mod n. On a shared host,
/// set-ups that stay on one CPU settle in a fast or a slow mode for long
/// stretches of a process, so their median jumps between runs; a set-up
/// that moves every time starts with caches it has not warmed, like a
/// freshly started cell, and reads the same from run to run.
bool next_setup(const Measurement& m, bool traced, std::int64_t first,
                const std::vector<int>& cpus) {
  bool more = traced ? m.setup_s.empty()
                     : static_cast<int>(m.setup_s.size()) < kMinSetups ||
                           now_ns() - first < kSetupBudgetNs;
  if (more && !cpus.empty()) pin_thread(cpus[m.setup_s.size() % cpus.size()]);
  return more;
}

/// The benchmark's call into BusClient::publish, with its span and the
/// hop stage the per-hop latencies start from.
void publish(amuse::BusClient& client, Event e, std::uint64_t key,
             std::int64_t lag_ns) {
  ScopedSpan span(SpanKind::kPublish);
  if (Tracer* tr = Tracer::active(); tr != nullptr) {
    span.set_event(key);
    ThreadTrace& tt = tr->local();
    if (tt.hops.size() < Tracer::kMaxHops) {
      tt.hops.push_back(HopRecord{
          key, span.start(), lag_ns,
          static_cast<std::uint8_t>(HopStage::kPublishCall), 0});
    }
  }
  client.publish(std::move(e));
}

/// A subscriber handler: reports to the oracle inside a deliver span.
amuse::BusClient::Handler deliver_to(Oracle& oracle, int subscriber) {
  return [&oracle, subscriber](const Event& e) {
    ScopedSpan span(SpanKind::kDeliver);
    std::int64_t now = now_ns();
    if (Tracer* tr = Tracer::active(); tr != nullptr) {
      auto key = event_key(static_cast<std::uint32_t>(e.get_int("pub")),
                           static_cast<std::uint32_t>(e.get_int("pseq")),
                           e.type().starts_with("alarm."));
      span.set_event(key);
      ThreadTrace& tt = tr->local();
      if (tt.hops.size() < Tracer::kMaxHops) {
        tt.hops.push_back(HopRecord{
            key, now, 0, static_cast<std::uint8_t>(HopStage::kHandler),
            static_cast<std::uint8_t>(subscriber)});
      }
    }
    oracle.on_invocation(subscriber, e, now);
  };
}

/// Pads `e` with a "note" string so its payload is about `target` bytes.
void pad_to(Event& e, std::size_t target) {
  std::size_t base = e.payload_size();
  if (target > base + 8) e.set("note", std::string(target - base - 8, 'n'));
}

/// Expected subscriber set of an event against per-subscriber filters.
struct Expectation {
  std::uint64_t members = 0;
  std::uint32_t invocations = 0;
};
Expectation expect_of(const Event& e,
                      const std::vector<std::vector<Filter>>& subs) {
  Expectation x;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    for (const Filter& f : subs[i]) {
      if (f.matches(e)) {
        x.members |= 1ULL << i;
        ++x.invocations;
      }
    }
  }
  return x;
}

/// The timed phase shared by both workloads. `round(timed)` runs one
/// closed-loop round and returns false when the run must stop (a stall).
/// Fills the window figures of `m`.
template <typename Round>
void run_rounds(const RunOptions& opt, SimWorld& w, Oracle& oracle,
                Tracer* tracer, Measurement& m, Round round) {
  std::int64_t t_start = now_ns();
  auto window_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  auto warmup_ns = static_cast<std::int64_t>(
      static_cast<double>(window_ns) * kWarmupShare);
  while (now_ns() - t_start < warmup_ns) {
    if (!round(false)) return;
  }
  // A traced run alternates slices with the tracer on and off, so the
  // traced figures and their untraced reference share the host's
  // conditions. Counters are summed over the traced slices only.
  bool tracing = false;
  std::int64_t phase_t0 = 0;
  std::uint64_t phase_d0 = 0;
  amuse::EventBus::Stats bus0;
  std::uint64_t auth0 = 0;
  std::uint64_t obl0 = 0;
  auto end_phase = [&](std::int64_t t) {
    double wall_s = static_cast<double>(t - phase_t0) / 1e9;
    std::uint64_t delivered = oracle.deliveries() - phase_d0;
    if (!tracing) {
      m.reference_wall_s += wall_s;
      m.reference_deliveries += delivered;
      return;
    }
    tracer->deactivate();
    m.traced_wall_s += wall_s;
    m.traced_deliveries += delivered;
    amuse::EventBus::Stats d = stats_delta(w.cell->bus().stats(), bus0);
    m.bus_delta.published += d.published;
    m.bus_delta.deliveries += d.deliveries;
    m.bus_delta.encodes += d.encodes;
    m.bus_delta.events_shed += d.events_shed;
    m.auth_checks += w.cell->authorisation().stats().checks - auth0;
    m.obligations_fired += w.cell->obligations().stats().publishes - obl0;
  };
  auto begin_phase = [&](bool traced_phase, std::int64_t t) {
    tracing = traced_phase;
    phase_t0 = t;
    phase_d0 = oracle.deliveries();
    bus0 = w.cell->bus().stats();
    auth0 = w.cell->authorisation().stats().checks;
    obl0 = w.cell->obligations().stats().publishes;
    if (tracing) tracer->activate();
  };
  // The CPUs of a shared host do not run equally fast, and which one is
  // slow changes while the run goes on (a busy SMT sibling, another
  // tenant). The window therefore moves the simulation to the next CPU
  // every slice (every traced/untraced pair of slices when tracing), so no
  // one CPU decides the run.
  std::vector<int> cpus = allowed_cpus();
  std::size_t per_cpu = tracer != nullptr ? 2 : 1;
  std::int64_t t0 = now_ns();
  Mark first{t0, oracle.deliveries(), cpu_seconds()};
  Mark last = first;
  begin_phase(tracer != nullptr, t0);
  std::size_t slice = 0;
  for (;;) {
    if (!round(true)) break;
    std::int64_t t = now_ns();
    last = {t, oracle.deliveries(), cpu_seconds()};
    if (t - t0 >= window_ns) break;
    auto now_slice = static_cast<std::size_t>((t - t0) * kSlices / window_ns);
    if (now_slice == slice) continue;
    slice = now_slice;
    if (!cpus.empty()) pin_thread(cpus[slice / per_cpu % cpus.size()]);
    if (tracer != nullptr) {
      end_phase(t);
      begin_phase(slice % 2 == 0, t);
    }
  }
  end_phase(last.t_ns);
  fill_window(first, last, m);
}

// ---------------------------------------------------------------- ward_vitals

constexpr int kWardSensors = 32;
constexpr int kWardMonitors = 8;
constexpr int kTemplatesPerSensor = 64;

struct VitalTemplate {
  Event event;
  Expectation direct;
  Expectation alarm;
};

const char* kVitalTypes[] = {"vitals.heartrate", "vitals.spo2",
                             "vitals.temperature", "vitals.bloodpressure"};

/// The monitors' subscriptions: type, prefix, threshold and patient
/// filters, 2-3 per monitor. Monitor 0 is the central station that takes
/// every vitals reading and every alarm, so each routed event has a remote
/// subscriber. Fixed across seeds: a seed changes the readings, not how
/// much fan-out the cell does.
std::vector<std::vector<Filter>> ward_subscriptions() {
  auto vitals_of = [](const char* patient) {
    return Filter::for_type_prefix("vitals.").where("patient", Op::kEq, patient);
  };
  return {
      {Filter::for_type_prefix("vitals."), Filter::for_type_prefix("alarm.")},
      {Filter::for_type("vitals.heartrate").where("hr", Op::kGt, 110),
       Filter::for_type("alarm.cardiac")},
      {Filter::for_type("vitals.spo2").where("spo2", Op::kLt, 92),
       Filter::for_type_prefix("alarm.")},
      {Filter::for_type("vitals.temperature").where("temp_c", Op::kGt, 38.0),
       Filter::for_type("vitals.bloodpressure")},
      {vitals_of("P03"), vitals_of("P17"), Filter::for_type("alarm.desat")},
      {Filter::for_type("vitals.heartrate"), Filter::for_type("vitals.spo2")},
      {Filter::for_type("vitals.bloodpressure").where("sys", Op::kGt, 150),
       Filter::for_type("alarm.fever"), Filter::for_type("vitals.temperature")},
      {Filter::for_type_prefix("alarm."),
       Filter::for_type("vitals.heartrate").where("hr", Op::kGt, 130),
       vitals_of("P08")},
  };
}

/// The alarm the cell's obligation policy derives from `e`, built the way
/// the obligation engine builds it, or nullopt when no policy fires.
std::optional<Event> derived_alarm(const Event& e) {
  std::string_view t = e.type();
  const char* type = nullptr;
  const char* attr = nullptr;
  const char* policy = nullptr;
  if (t == "vitals.heartrate" && e.get_int("hr") > 120) {
    type = "alarm.cardiac", attr = "hr", policy = "cardiac";
  } else if (t == "vitals.spo2" && e.get_int("spo2") < 90) {
    type = "alarm.desat", attr = "spo2", policy = "desat";
  } else if (t == "vitals.temperature" && e.get_double("temp_c") > 38.5) {
    type = "alarm.fever", attr = "temp_c", policy = "fever";
  }
  if (type == nullptr) return std::nullopt;
  Event a(type);
  a.set(attr, *e.get(attr));
  a.set("patient", e.get_string("patient"));
  a.set("pub", std::int64_t{0});
  a.set("pseq", std::int64_t{0});
  a.set("x-policy", policy);
  a.set("x-chain", std::int64_t{1});
  return a;
}

VitalTemplate vital_event(int sensor, Rng& rng,
                          const std::vector<std::vector<Filter>>& subs) {
  int kind = sensor % 4;
  char patient[16];
  std::snprintf(patient, sizeof(patient), "P%02d", sensor);
  char bed[16];
  std::snprintf(bed, sizeof(bed), "W1-B%02d", sensor);
  Event e(kVitalTypes[kind], {{"patient", patient}, {"bed", bed}});
  switch (kind) {
    case 0:
      e.set("hr", rng.uniform_int(55, 140));
      e.set("unit", "bpm");
      break;
    case 1: e.set("spo2", rng.uniform_int(86, 100)); break;
    case 2: e.set("temp_c", 36.0 + rng.uniform() * 3.5); break;
    default:
      e.set("sys", rng.uniform_int(90, 180));
      e.set("dia", rng.uniform_int(50, 110));
      break;
  }
  e.set("pub", std::int64_t{sensor});
  e.set("pseq", std::int64_t{0});
  pad_to(e, static_cast<std::size_t>(rng.uniform_int(64, 250)));
  VitalTemplate v{e, expect_of(e, subs), {}};
  if (std::optional<Event> a = derived_alarm(e)) v.alarm = expect_of(*a, subs);
  return v;
}

}  // namespace

Measurement run_ward_vitals(const RunOptions& opt, Tracer* tracer) {
  Measurement m;
  m.policy_text = kPolicies;
  Rng rng(opt.seed, 0x77a4d);
  std::vector<std::vector<Filter>> subs = ward_subscriptions();
  std::vector<std::vector<VitalTemplate>> templates(kWardSensors);
  for (int s = 0; s < kWardSensors; ++s) {
    for (int k = 0; k < kTemplatesPerSensor; ++k) {
      templates[static_cast<std::size_t>(s)].push_back(
          vital_event(s, rng, subs));
    }
  }
  for (std::size_t i = 0; i < subs.size(); ++i) {
    for (std::size_t k = 0; k < subs[i].size(); ++k) {
      m.subscriptions.push_back({static_cast<int>(i), k + 1, subs[i][k]});
    }
  }

  Oracle oracle(kWardSensors, kWardMonitors);
  std::unique_ptr<SimWorld> w;
  std::vector<int> cpus = allowed_cpus();
  for (std::int64_t first = now_ns();
       next_setup(m, tracer != nullptr, first, cpus);) {
    w.reset();
    std::int64_t t0 = now_ns();
    w = std::make_unique<SimWorld>(opt.seed, tracer != nullptr);
    capture_authorisation(*w->cell, tracer);
    for (int i = 0; i < kWardSensors; ++i) {
      w->add_member("sensor.vitals", "sensor", -1, tracer);
    }
    for (int i = 0; i < kWardMonitors; ++i) {
      w->add_member("console.monitor", "monitor", i, tracer);
    }
    std::int64_t tj = now_ns();
    if (!w->join_all()) {
      m.violations.push_back("members did not join");
      m.failed_pairs = 1;
      return m;
    }
    m.join_ms.push_back(static_cast<double>(now_ns() - tj) / 1e6);
    std::size_t base = w->cell->bus().registry().size();
    std::size_t want = base;
    for (int i = 0; i < kWardMonitors; ++i) {
      amuse::BusClient* c = w->members[kWardSensors + i]->client();
      for (const Filter& f : subs[static_cast<std::size_t>(i)]) {
        c->subscribe(f, deliver_to(oracle, i));
        ++want;
      }
    }
    if (!w->step_until([&] { return w->cell->bus().registry().size() == want; })) {
      m.violations.push_back("subscriptions did not reach the bus");
      m.failed_pairs = 1;
      return m;
    }
    m.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  amuse::EventBus::Stats bus_start = w->cell->bus().stats();
  std::vector<std::size_t> next(kWardSensors, 0);
  bool stalled = false;
  auto round = [&](bool timed) {
    std::int64_t t = now_ns();
    for (int s = 0; s < kWardSensors; ++s) {
      auto& pool = templates[static_cast<std::size_t>(s)];
      const VitalTemplate& v = pool[next[static_cast<std::size_t>(s)]++ %
                                    pool.size()];
      std::uint32_t pseq = oracle.expect(
          s, t, v.direct.members, v.alarm.members,
          v.direct.invocations + v.alarm.invocations, timed);
      Event e = v.event;
      e.set("pseq", static_cast<std::int64_t>(pseq));
      publish(*w->members[static_cast<std::size_t>(s)]->client(), std::move(e),
              event_key(static_cast<std::uint32_t>(s), pseq, false), 0);
    }
    if (!w->step_until([&] { return oracle.outstanding() == 0; })) {
      stalled = true;
      return false;
    }
    w->idle_round();
    return true;
  };
  run_rounds(opt, *w, oracle, tracer, m, round);
  if (stalled) m.violations.push_back("deliveries stalled");
  oracle.finish(m);
  check_bus_invariants(stats_delta(w->cell->bus().stats(), bus_start),
                       m.expected_pairs, m);
  fill_latency(oracle, m);
  return m;
}

// ------------------------------------------------------------ alarm_thresholds

namespace {

constexpr int kHubs = 16;
constexpr int kConsoles = 64;
constexpr int kPatients = 2000;
constexpr int kWards = 20;
constexpr int kSubsPerConsole = 160;  // 64 x 160 = 10,240 subscriptions
constexpr int kPublishesPerHub = 4;   // per round: 64 publishes ...
constexpr int kUpdatesPerRound = 8;   // ... and 8 threshold updates (11%)

/// One installed subscription, indexed by the generator so the expected
/// set of an event is computed from its candidate filters only: every
/// filter pins a patient, or a ward's bed prefix.
struct AlarmSub {
  int console;
  std::uint64_t local_id;
  Filter filter;
};

struct AlarmIndex {
  std::vector<std::vector<AlarmSub>> by_patient{kPatients};
  std::vector<std::vector<AlarmSub>> by_ward{kWards};
  // Per console: patients whose threshold subscription it may update.
  std::vector<std::vector<int>> updatable{kConsoles};

  Expectation expect(const Event& e, int patient, int ward) const {
    Expectation x;
    for (const auto* bucket : {&by_patient[static_cast<std::size_t>(patient)],
                               &by_ward[static_cast<std::size_t>(ward)]}) {
      for (const AlarmSub& s : *bucket) {
        if (s.filter.matches(e)) {
          x.members |= 1ULL << s.console;
          ++x.invocations;
        }
      }
    }
    return x;
  }
};

std::string patient_id(int p) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "P%04d", p);
  return buf;
}

std::string bed_prefix(int ward) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "W%02d-", ward);
  return buf;
}

Filter threshold_filter(int patient, Rng& rng) {
  Filter f = Filter::for_type("obs.vitals");
  f.where("patient", Op::kEq, patient_id(patient));
  if (rng.chance(0.55)) {
    f.where("hr", Op::kGt, rng.uniform_int(90, 150));
  } else {
    f.where("spo2", Op::kLt, rng.uniform_int(85, 95));
  }
  return f;
}

/// A subscription plan: (console, patient or -1-ward, filter).
struct PlannedSub {
  int console;
  int patient;  // -1: ward-level (bucketed by ward)
  int ward;
  bool updatable;
  Filter filter;
};

std::vector<PlannedSub> plan_alarm_subscriptions(Rng& rng) {
  std::vector<PlannedSub> plan;
  std::vector<int> per_console(kConsoles, 0);
  // Every patient has a primary console taking all its observations.
  for (int p = 0; p < kPatients; ++p) {
    int c = p % kConsoles;
    plan.push_back({c, p, p % kWards, false,
                    Filter::for_type("obs.vitals")
                        .where("patient", Op::kEq, patient_id(p))});
    ++per_console[static_cast<std::size_t>(c)];
  }
  for (int c = 0; c < kConsoles; ++c) {
    while (per_console[static_cast<std::size_t>(c)] < kSubsPerConsole) {
      if (rng.chance(0.05)) {
        int ward = static_cast<int>(rng.bounded(kWards));
        plan.push_back({c, -1, ward, false,
                        Filter::for_type("obs.vitals")
                            .where("bed", Op::kPrefix, bed_prefix(ward))
                            .where("hr", Op::kGt, rng.uniform_int(140, 160))});
      } else {
        int p = static_cast<int>(rng.bounded(kPatients));
        plan.push_back({c, p, p % kWards, true, threshold_filter(p, rng)});
      }
      ++per_console[static_cast<std::size_t>(c)];
    }
  }
  return plan;
}

Event observation(int patient, Rng& rng) {
  char bed[16];
  std::snprintf(bed, sizeof(bed), "W%02d-B%04d", patient % kWards, patient);
  Event e("obs.vitals", {{"patient", patient_id(patient)},
                         {"bed", bed},
                         {"hr", rng.uniform_int(50, 160)},
                         {"spo2", rng.uniform_int(85, 100)},
                         {"resp", rng.uniform_int(8, 30)}});
  return e;
}

}  // namespace

Measurement run_alarm_thresholds(const RunOptions& opt, Tracer* tracer) {
  Measurement m;
  m.policy_text = kPolicies;
  Rng plan_rng(opt.seed, 0xa1a7);
  std::vector<PlannedSub> plan = plan_alarm_subscriptions(plan_rng);

  Oracle oracle(kHubs, kConsoles);
  std::unique_ptr<SimWorld> w;
  AlarmIndex index;
  std::vector<int> cpus = allowed_cpus();
  for (std::int64_t first = now_ns();
       next_setup(m, tracer != nullptr, first, cpus);) {
    w.reset();
    index = AlarmIndex{};
    std::int64_t t0 = now_ns();
    w = std::make_unique<SimWorld>(opt.seed, tracer != nullptr);
    capture_authorisation(*w->cell, tracer);
    for (int i = 0; i < kHubs; ++i) {
      w->add_member("sensor.hub", "sensor", -1, tracer);
    }
    for (int i = 0; i < kConsoles; ++i) {
      w->add_member("console.care", "nurse", i, tracer);
    }
    std::int64_t tj = now_ns();
    if (!w->join_all()) {
      m.violations.push_back("members did not join");
      m.failed_pairs = 1;
      return m;
    }
    m.join_ms.push_back(static_cast<double>(now_ns() - tj) / 1e6);
    std::size_t want = w->cell->bus().registry().size() + plan.size();
    for (const PlannedSub& p : plan) {
      amuse::BusClient* c = w->members[kHubs + p.console]->client();
      std::uint64_t id = c->subscribe(p.filter, deliver_to(oracle, p.console));
      AlarmSub sub{p.console, id, p.filter};
      if (p.patient >= 0) {
        index.by_patient[static_cast<std::size_t>(p.patient)].push_back(sub);
        if (p.updatable) {
          index.updatable[static_cast<std::size_t>(p.console)].push_back(
              p.patient);
        }
      } else {
        index.by_ward[static_cast<std::size_t>(p.ward)].push_back(sub);
      }
    }
    if (!w->step_until([&] { return w->cell->bus().registry().size() == want; })) {
      m.violations.push_back("subscriptions did not reach the bus");
      m.failed_pairs = 1;
      return m;
    }
    m.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Rng rng(opt.seed, 0x0b5e);
  amuse::EventBus::Stats bus_start = w->cell->bus().stats();
  bool stalled = false;
  // Replaces one threshold subscription of `console` (unsubscribe +
  // subscribe with a fresh threshold for the same patient).
  auto update = [&](int console) {
    auto& pats = index.updatable[static_cast<std::size_t>(console)];
    int patient = pats[rng.bounded(static_cast<std::uint32_t>(pats.size()))];
    auto& bucket = index.by_patient[static_cast<std::size_t>(patient)];
    amuse::BusClient* c = w->members[kHubs + console]->client();
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->console == console && it->filter.size() == 3) {
        c->unsubscribe(it->local_id);
        bucket.erase(it);
        break;
      }
    }
    Filter f = threshold_filter(patient, rng);
    std::uint64_t id = c->subscribe(f, deliver_to(oracle, console));
    bucket.push_back({console, id, std::move(f)});
  };
  auto round = [&](bool timed) {
    std::int64_t t = now_ns();
    for (int k = 0; k < kPublishesPerHub; ++k) {
      for (int h = 0; h < kHubs; ++h) {
        int patient = static_cast<int>(rng.bounded(kPatients));
        Event e = observation(patient, rng);
        Expectation x = index.expect(e, patient, patient % kWards);
        std::uint32_t pseq = oracle.expect(h, t, x.members, 0, x.invocations,
                                           timed);
        e.set("pub", std::int64_t{h});
        e.set("pseq", static_cast<std::int64_t>(pseq));
        publish(*w->members[static_cast<std::size_t>(h)]->client(),
                std::move(e),
                event_key(static_cast<std::uint32_t>(h), pseq, false), 0);
      }
    }
    if (!w->step_until([&] { return oracle.outstanding() == 0; })) {
      stalled = true;
      return false;
    }
    // Threshold updates run between publishes, so the oracle's index and
    // the bus's registry agree for every event it routes.
    std::vector<int> touched;
    for (int u = 0; u < kUpdatesPerRound; ++u) {
      int console = static_cast<int>(rng.bounded(kConsoles));
      if (index.updatable[static_cast<std::size_t>(console)].empty()) continue;
      update(console);
      touched.push_back(console);
    }
    if (!w->step_until([&] {
          for (int c : touched) {
            if (w->members[static_cast<std::size_t>(kHubs + c)]
                    ->client()
                    ->backlog() != 0) {
              return false;
            }
          }
          return true;
        })) {
      stalled = true;
      return false;
    }
    w->idle_round();
    return true;
  };
  run_rounds(opt, *w, oracle, tracer, m, round);
  if (stalled) m.violations.push_back("deliveries or updates stalled");
  for (const auto& bucket : index.by_patient) {
    for (const AlarmSub& s : bucket) {
      m.subscriptions.push_back({s.console, s.local_id, s.filter});
    }
  }
  for (const auto& bucket : index.by_ward) {
    for (const AlarmSub& s : bucket) {
      m.subscriptions.push_back({s.console, s.local_id, s.filter});
    }
  }
  oracle.finish(m);
  check_bus_invariants(stats_delta(w->cell->bus().stats(), bus_start),
                       m.expected_pairs, m);
  fill_latency(oracle, m);
  return m;
}

}  // namespace perfbench
