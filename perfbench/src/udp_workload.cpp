// bedside_udp: real UDP sockets on loopback. The bus runs on its own
// RealExecutor thread and the members share a second one; at most nproc
// member endpoints (2 ECG-strip publishers, ~1 KB events, and 2
// subscribers on a 4-core machine), admitted with EventBus::add_member.
//
// Phase 1, open loop: a generator thread sleeps until each due time of a
// fixed publish rate and hands the publish to the members' executor;
// latency is timed from the due time, so a stall that delays later
// publishes is counted. Phase 2, closed loop: each publisher keeps
// kCredits events outstanding until every expected subscriber has them,
// which measures throughput.
#include <sys/prctl.h>

#include <future>
#include <thread>

#include "bench.hpp"
#include "bus/bus_client.hpp"
#include "common/rng.hpp"
#include "net/udp_transport.hpp"
#include "sim/real_executor.hpp"

namespace perfbench {
namespace {

using amuse::Event;
using amuse::Filter;
using amuse::Op;

constexpr double kOpenRate = 2000;  // publishes/s over all publishers
constexpr double kOpenShare = 0.6;  // of the run's seconds; rest closed loop
constexpr double kWarmupShare = 0.1;  // of the open-loop phase, untimed
constexpr int kCredits = 16;          // per publisher, closed loop
constexpr int kSetups = 3;
constexpr int kTemplates = 64;
constexpr auto kDrainLimit = std::chrono::seconds(10);

/// Thread placement on a machine with at least four usable CPUs: the
/// members' executor, the bus executor, every UDP receive thread and the
/// generator each get a CPU of their own, so the run does not depend on
/// where the scheduler happens to put eight threads. Receive threads are started inside UdpTransport::open
/// and inherit the opening thread's mask, so the opening thread takes the
/// receive CPU while it opens them.
class Placement {
 public:
  enum Role { kEdge = 0, kCore = 1, kReceive = 2, kGenerator = 3 };
  Placement() : cpus_(allowed_cpus()) {
    if (cpus_.size() < 4) cpus_.clear();
  }
  /// Pins the calling thread to `role`'s CPU (no-op without placement).
  void pin(Role role) const {
    if (!cpus_.empty()) pin_thread(cpus_[static_cast<std::size_t>(role)]);
  }
  /// True when the generator has a CPU of its own.
  [[nodiscard]] bool active() const { return !cpus_.empty(); }

 private:
  std::vector<int> cpus_;
};

template <typename F>
auto run_on(amuse::Executor& ex, F f) -> decltype(f()) {
  std::promise<decltype(f())> done;
  auto result = done.get_future();
  ex.post([&] { done.set_value(f()); });
  return result.get();
}

struct Template {
  Event event;
  std::uint64_t members = 0;
  std::uint32_t invocations = 0;
};

/// Bus core + members over loopback UDP, each side on its own thread.
class UdpWorld {
 public:
  UdpWorld(const Placement& placement, bool traced_run, Tracer* tracer,
           int publishers,
           const std::vector<Filter>& filters, Oracle& oracle,
           std::atomic<std::uint64_t>& delivered)
      : traced_(traced_run),
        core_tex_(core_ex_, Domain::kCore),
        edge_tex_(edge_ex_, Domain::kEdge),
        core_(traced_run ? static_cast<amuse::Executor&>(core_tex_) : core_ex_),
        edge_(traced_run ? static_cast<amuse::Executor&>(edge_tex_) : edge_ex_) {
    std::shared_ptr<amuse::Transport> bus_ep = amuse::UdpTransport::open(core_);
    bus_ = std::make_unique<amuse::EventBus>(
        core_, traced(traced_, bus_ep, EndpointRole::kCoreBus));
    auto n = static_cast<int>(filters.size()) + publishers;
    for (int i = 0; i < n; ++i) {
      bool sub = i >= publishers;
      int s = i - publishers;
      std::shared_ptr<amuse::Transport> ep = amuse::UdpTransport::open(edge_);
      bus_->add_member({ep->local_id(), sub ? "console.icu" : "sensor.ecg",
                        sub ? "nurse" : "sensor"});
      if (sub && tracer != nullptr) {
        tracer->set_member_index(ep->local_id().raw(), s);
      }
      clients_.push_back(std::make_unique<amuse::BusClient>(
          edge_, traced(traced_, ep, EndpointRole::kMember, sub ? s : -1),
          bus_->bus_id()));
      if (sub) {
        clients_.back()->subscribe(
            filters[static_cast<std::size_t>(s)],
            [&oracle, &delivered, s](const Event& e) {
              ScopedSpan span(SpanKind::kDeliver);
              std::int64_t now = now_ns();
              if (Tracer* tr = Tracer::active(); tr != nullptr) {
                auto key = event_key(
                    static_cast<std::uint32_t>(e.get_int("pub")),
                    static_cast<std::uint32_t>(e.get_int("pseq")), false);
                span.set_event(key);
                ThreadTrace& tt = tr->local();
                if (tt.hops.size() < Tracer::kMaxHops) {
                  tt.hops.push_back(HopRecord{
                      key, now, 0,
                      static_cast<std::uint8_t>(HopStage::kHandler),
                      static_cast<std::uint8_t>(s)});
                }
              }
              oracle.on_invocation(s, e, now);
              delivered.store(oracle.deliveries(), std::memory_order_relaxed);
            });
      }
    }
    core_thread_ = std::thread([this, &placement] {
      placement.pin(Placement::kCore);
      core_ex_.run();
    });
    edge_thread_ = std::thread([this, &placement] {
      placement.pin(Placement::kEdge);
      edge_ex_.run();
    });
  }

  ~UdpWorld() {
    stop();
    clients_.clear();
    bus_.reset();
  }
  UdpWorld(const UdpWorld&) = delete;
  UdpWorld& operator=(const UdpWorld&) = delete;

  /// Stops both loops; state may be read from the calling thread after.
  void stop() {
    if (!core_thread_.joinable()) return;
    core_ex_.post([this] { core_ex_.stop(); });
    edge_ex_.post([this] { edge_ex_.stop(); });
    core_thread_.join();
    edge_thread_.join();
  }

  [[nodiscard]] amuse::EventBus& bus() { return *bus_; }
  [[nodiscard]] amuse::BusClient& client(int i) {
    return *clients_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] amuse::Executor& core() { return core_; }
  [[nodiscard]] amuse::Executor& edge() { return edge_; }

 private:
  bool traced_;
  amuse::RealExecutor core_ex_;
  amuse::RealExecutor edge_ex_;
  TracingExecutor core_tex_;
  TracingExecutor edge_tex_;
  amuse::Executor& core_;
  amuse::Executor& edge_;
  std::unique_ptr<amuse::EventBus> bus_;
  std::vector<std::unique_ptr<amuse::BusClient>> clients_;
  std::thread core_thread_;
  std::thread edge_thread_;
};

/// Polls `f` on `ex` until it returns true or the drain limit passes.
template <typename F>
bool wait_on(amuse::Executor& ex, F f) {
  auto limit = std::chrono::steady_clock::now() + kDrainLimit;
  while (!run_on(ex, f)) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// `hop`: record the publish-call hop stage (open-loop timed events only;
/// those are the ones the end-to-end latency covers).
void publish(amuse::BusClient& client, Event e, std::uint64_t key,
             std::int64_t lag_ns, bool hop) {
  ScopedSpan span(SpanKind::kPublish);
  if (Tracer* tr = Tracer::active(); tr != nullptr && hop) {
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

}  // namespace

Measurement run_bedside_udp(const RunOptions& opt, Tracer* tracer) {
  Measurement m;
  unsigned cores = std::max(2U, std::min(4U, std::thread::hardware_concurrency()));
  int publishers = static_cast<int>(cores / 2);
  int subscribers = static_cast<int>(cores) - publishers;

  // Subscriber 0 takes every strip; the others one lead each.
  std::vector<Filter> filters;
  filters.push_back(Filter::for_type_prefix("ecg."));
  for (int s = 1; s < subscribers; ++s) {
    filters.push_back(Filter::for_type("ecg.strip")
                          .where("lead", Op::kEq, s % 2 == 1 ? "II" : "V5"));
  }
  for (std::size_t s = 0; s < filters.size(); ++s) {
    m.subscriptions.push_back({static_cast<int>(s), 1, filters[s]});
  }
  amuse::Rng rng(opt.seed, 0xec6);
  std::vector<std::vector<Template>> templates(
      static_cast<std::size_t>(publishers));
  for (int p = 0; p < publishers; ++p) {
    for (int k = 0; k < kTemplates; ++k) {
      amuse::Bytes samples(static_cast<std::size_t>(rng.uniform_int(900, 1100)));
      for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_u32());
      char patient[16];
      std::snprintf(patient, sizeof(patient), "P%02d", p);
      Event e("ecg.strip", {{"patient", patient},
                            {"lead", k % 2 == 0 ? "II" : "V5"},
                            {"rate_hz", std::int64_t{250}},
                            {"samples", std::move(samples)},
                            {"pub", std::int64_t{p}},
                            {"pseq", std::int64_t{0}}});
      Template t{std::move(e), 0, 0};
      for (std::size_t s = 0; s < filters.size(); ++s) {
        if (filters[s].matches(t.event)) {
          t.members |= 1ULL << s;
          ++t.invocations;
        }
      }
      templates[static_cast<std::size_t>(p)].push_back(std::move(t));
    }
  }

  Oracle oracle(publishers, subscribers);
  std::atomic<std::uint64_t> delivered{0};
  Placement placement;
  std::unique_ptr<UdpWorld> w;
  int setups = tracer != nullptr ? 1 : kSetups;
  try {
    for (int s = 0; s < setups; ++s) {
      w.reset();
      std::int64_t t0 = now_ns();
      placement.pin(Placement::kReceive);
      w = std::make_unique<UdpWorld>(placement, tracer != nullptr, tracer,
                                     publishers,
                                     filters, oracle, delivered);
      placement.pin(Placement::kGenerator);
      auto want = static_cast<std::size_t>(subscribers);
      if (!wait_on(w->core(), [&] { return w->bus().registry().size() == want; })) {
        m.violations.push_back("subscriptions did not reach the bus");
        m.failed_pairs = 1;
        return m;
      }
      m.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  } catch (const std::exception& e) {
    m.violations.push_back(std::string("UDP set-up failed: ") + e.what());
    m.failed_pairs = 1;
    return m;
  }
  amuse::EventBus::Stats bus_start =
      run_on(w->core(), [&] { return w->bus().stats(); });

  std::vector<std::size_t> next(static_cast<std::size_t>(publishers), 0);
  // Runs on the members' executor.
  auto publish_next = [&](int p, std::int64_t due, std::int64_t lag,
                          bool timed) {
    auto& pool = templates[static_cast<std::size_t>(p)];
    const Template& t = pool[next[static_cast<std::size_t>(p)]++ % pool.size()];
    std::uint32_t pseq =
        oracle.expect(p, due, t.members, 0, t.invocations, timed);
    Event e = t.event;
    e.set("pseq", static_cast<std::int64_t>(pseq));
    publish(w->client(p), std::move(e),
            event_key(static_cast<std::uint32_t>(p), pseq, false), lag, timed);
  };

  // ---- Phase 1: open loop at kOpenRate.
  double open_s = opt.seconds * kOpenShare;
  auto period_ns = static_cast<std::int64_t>(1e9 / kOpenRate);
  auto open_ns = static_cast<std::int64_t>(open_s * 1e9);
  auto warm_ns = static_cast<std::int64_t>(open_s * kWarmupShare * 1e9);
  std::vector<float> lags_us;
  // Without a CPU of its own, wake the generator at its due times, not up
  // to the default 50 µs of timer slack after them.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::int64_t start = now_ns() + 1'000'000;
  bool traced_on = false;
  amuse::EventBus::Stats bus_traced0;
  std::uint64_t traced_d0 = 0;
  std::int64_t traced_t0 = 0;
  for (std::int64_t i = 0;; ++i) {
    std::int64_t due = start + i * period_ns;
    if (due - start >= open_ns) break;
    bool timed = due - start >= warm_ns;
    if (timed && !traced_on && tracer != nullptr) {
      bus_traced0 = run_on(w->core(), [&] { return w->bus().stats(); });
      traced_d0 = delivered.load();
      traced_t0 = now_ns();
      tracer->activate();
      traced_on = true;
    }
    if (placement.active()) {
      // A sleeping virtual CPU can take milliseconds to be woken; on its
      // own CPU the generator waits for each due time awake instead.
      while (now_ns() < due) {
      }
    } else {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    std::int64_t lag = now_ns() - due;
    if (timed) lags_us.push_back(static_cast<float>(lag) / 1000.0f);
    int p = static_cast<int>(i % publishers);
    w->edge().post([&, p, due, lag, timed] { publish_next(p, due, lag, timed); });
  }
  bool drained = wait_on(w->edge(), [&] { return oracle.outstanding() == 0; });

  // ---- Phase 2: closed loop, kCredits outstanding per publisher.
  std::atomic<bool> closed_running{true};
  Mark first{};
  Mark last{};
  if (drained) {
    if (tracer != nullptr) tracer->set_decode(false);
    run_on(w->edge(), [&] {
      oracle.set_on_complete([&](int p) {
        if (closed_running.load(std::memory_order_relaxed)) {
          publish_next(p, now_ns(), 0, false);
        }
      });
      return 0;
    });
    auto closed_ns = static_cast<std::int64_t>(opt.seconds * (1 - kOpenShare) * 1e9);
    std::int64_t t0 = now_ns();
    first = {t0, delivered.load(), cpu_seconds()};
    w->edge().post([&] {
      for (int p = 0; p < publishers; ++p) {
        for (int k = 0; k < kCredits; ++k) publish_next(p, now_ns(), 0, false);
      }
    });
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + closed_ns)));
    last = {now_ns(), delivered.load(), cpu_seconds()};
    closed_running.store(false);
    drained = wait_on(w->edge(), [&] { return oracle.outstanding() == 0; });
  }
  if (traced_on) {
    tracer->deactivate();
    m.traced_wall_s = static_cast<double>(now_ns() - traced_t0) / 1e9;
    m.traced_deliveries = delivered.load() - traced_d0;
    m.bus_delta = stats_delta(run_on(w->core(), [&] { return w->bus().stats(); }),
                              bus_traced0);
  }
  if (!drained) m.violations.push_back("deliveries did not drain");
  w->stop();

  fill_window(first, last, m);
  m.generator_lag_p99_us = percentile(lags_us, 0.99);

  oracle.finish(m);
  check_bus_invariants(stats_delta(w->bus().stats(), bus_start),
                       m.expected_pairs, m);
  fill_latency(oracle, m);
  return m;
}

}  // namespace perfbench
