// Shared pieces of the publish->deliver benchmark: run options, the
// measurement a workload returns, and the delivery oracle every workload
// checks its run against.
#pragma once

#include <cstdint>
#include <ctime>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bus/event_bus.hpp"
#include "pubsub/event.hpp"
#include "pubsub/filter.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

/// A subscription the generator installed, kept for the matcher replays.
struct SubscriptionInput {
  int member = 0;
  std::uint64_t local_id = 0;
  amuse::Filter filter;
};

/// What one run of a workload measured. End-to-end figures come from
/// untraced runs; the trace_* fields and the Tracer come from traced ones.
struct Measurement {
  // ---- End to end.
  double deliveries_per_s = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double latency_mean_us = 0;
  std::uint64_t latency_samples = 0;
  double cpu_us_per_delivery = 0;
  std::vector<double> setup_s;  // one per set-up
  std::vector<double> join_ms;  // discovery admission phase, per set-up
  double generator_lag_p99_us = 0;
  double window_s = 0;
  std::uint64_t window_deliveries = 0;

  // ---- Delivery oracle and bus invariants (whole run).
  std::uint64_t expected_pairs = 0;
  std::uint64_t failed_pairs = 0;
  std::vector<std::string> violations;

  // ---- Traced window (traced runs only).
  double traced_wall_s = 0;
  std::uint64_t traced_deliveries = 0;
  // Simulated workloads: the untraced slices interleaved with the traced
  // ones, the reference the per-layer table reconciles against.
  double reference_wall_s = 0;
  std::uint64_t reference_deliveries = 0;
  amuse::EventBus::Stats bus_delta;  // over the traced window
  std::uint64_t auth_checks = 0;
  std::uint64_t obligations_fired = 0;

  // ---- Inputs for the layer replays.
  std::vector<SubscriptionInput> subscriptions;
  std::string policy_text;  // empty when the workload runs without policy
};

/// Per-workload entry points. `tracer` is non-null for traced runs; it is
/// activated for the timed window only.
Measurement run_ward_vitals(const RunOptions& opt, Tracer* tracer);
Measurement run_alarm_thresholds(const RunOptions& opt, Tracer* tracer);
Measurement run_bedside_udp(const RunOptions& opt, Tracer* tracer);

// ---- Small helpers.

[[nodiscard]] inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Pins the calling thread to `cpu` (no-op when negative).
void pin_thread(int cpu);

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
[[nodiscard]] double percentile(std::vector<float>& v, double q);
/// Linear-interpolated quantile of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// One progress sample of a timed window.
struct Mark {
  std::int64_t t_ns;
  std::uint64_t deliveries;
  double cpu_s;  // process CPU time
};

/// Fills window_s, window_deliveries, deliveries_per_s and
/// cpu_us_per_delivery over the whole window from `first` to `last`, so
/// every stretch of the window counts, a stall as much as a fast spell.
void fill_window(const Mark& first, const Mark& last, Measurement& m);

/// Latency samples of a whole timed window in log-spaced buckets, 128 per
/// octave (each 0.54% wide), from 1/64 us up. Its memory is fixed, so the
/// oracle does not grow with the run's throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  /// Nearest-rank quantile, interpolated by rank inside its bucket.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

class Oracle;
/// Fills the latency figures from every timed sample of the run: p50, p99
/// and mean over the whole window.
void fill_latency(const Oracle& oracle, Measurement& m);

/// Difference of two bus stat snapshots (the counters the benchmark reads).
[[nodiscard]] amuse::EventBus::Stats stats_delta(
    const amuse::EventBus::Stats& after, const amuse::EventBus::Stats& before);

/// Checks the EventBus::stats() invariants over a run: every routed event
/// encoded exactly once, and one member delivery per expected pair.
void check_bus_invariants(const amuse::EventBus::Stats& delta,
                          std::uint64_t expected_pairs, Measurement& m);


/// Delivery oracle. The generator registers every publish with the set of
/// subscriber members (bit i = subscriber i) whose filters match it, as
/// computed with Filter::matches, and the number of subscription handler
/// invocations that implies. Subscriber handlers report every invocation.
/// The oracle checks exactly-once delivery per (publish, subscriber), and
/// per-sender FIFO on the benchmark's per-publisher sequence attribute.
/// Obligation-derived alarms ("alarm.*", carrying the triggering event's
/// pub/pseq) are a second expected set on the same record. Single-threaded:
/// use it from one thread (the simulation, or the members' executor).
class Oracle {
 public:
  struct Record {
    std::int64_t t_due = 0;
    std::uint64_t expect = 0;
    std::uint64_t got = 0;
    std::uint64_t alarm_expect = 0;
    std::uint64_t alarm_got = 0;
    std::uint32_t remaining = 0;  // member deliveries still to arrive
    bool timed = false;           // latency counts (inside the window)
  };
  /// Called when the last expected delivery of a publish arrives.
  using CompleteFn = std::function<void(int pub)>;

  /// Completed records are retired, so the oracle's memory does not grow
  /// with the run's throughput.
  Oracle(int publishers, int subscribers);

  /// Registers the next publish of `pub` and returns its sequence number.
  std::uint32_t expect(int pub, std::int64_t t_due, std::uint64_t members,
                       std::uint64_t alarm_members, std::uint32_t invocations,
                       bool timed);
  /// Reports one handler invocation at subscriber `member`.
  void on_invocation(int member, const amuse::Event& e, std::int64_t now);
  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

  /// Final verdict: fills expected/failed pairs and violations.
  void finish(Measurement& m) const;

 private:
  friend void fill_latency(const Oracle& oracle, Measurement& m);

  struct Stream {
    std::uint32_t base = 0;  // pseq of records.front()
    std::deque<Record> records;
  };
  std::vector<Stream> streams_;  // per publisher
  // [member][pub * 2 + derived]: last delivered pseq + 1 (0 = none yet).
  std::vector<std::vector<std::uint32_t>> last_seq_;
  std::vector<std::uint64_t> last_key_;  // per member: last dispatch
  std::uint64_t outstanding_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t expected_pairs_ = 0;
  std::uint64_t invocations_ = 0;
  std::uint64_t expected_invocations_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t unexpected_ = 0;
  std::uint64_t unknown_ = 0;
  LatencyHistogram latency_;
  CompleteFn on_complete_;
};

}  // namespace perfbench
