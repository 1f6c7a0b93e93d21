#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

void pin_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {
constexpr int kBucketsPerOctave = 128;
constexpr int kOctaves = 40;
constexpr double kHistogramMinUs = 1.0 / 64;
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kBucketsPerOctave * kOctaves), 0) {}

void LatencyHistogram::add(double us) {
  sum_ += us;
  ++count_;
  double x = us > kHistogramMinUs
                 ? std::log2(us / kHistogramMinUs) * kBucketsPerOctave
                 : 0;
  auto i = std::min(static_cast<std::size_t>(x), buckets_.size() - 1);
  ++buckets_[i];
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (before + buckets_[i] >= rank) {
      double f = (static_cast<double>(rank - before) - 0.5) /
                 static_cast<double>(buckets_[i]);
      return kHistogramMinUs *
             std::exp2((static_cast<double>(i) + f) / kBucketsPerOctave);
    }
    before += buckets_[i];
  }
  return 0;  // not reached: the buckets hold count_ samples
}

void fill_latency(const Oracle& oracle, Measurement& m) {
  m.latency_samples = oracle.latency_.count();
  m.latency_mean_us = oracle.latency_.mean();
  m.latency_p50_us = oracle.latency_.quantile(0.50);
  m.latency_p99_us = oracle.latency_.quantile(0.99);
}

void fill_window(const Mark& first, const Mark& last, Measurement& m) {
  m.window_s = static_cast<double>(last.t_ns - first.t_ns) / 1e9;
  m.window_deliveries = last.deliveries - first.deliveries;
  if (m.window_s <= 0 || m.window_deliveries == 0) return;
  auto d = static_cast<double>(m.window_deliveries);
  m.deliveries_per_s = d / m.window_s;
  m.cpu_us_per_delivery = (last.cpu_s - first.cpu_s) * 1e6 / d;
}

amuse::EventBus::Stats stats_delta(const amuse::EventBus::Stats& after,
                                   const amuse::EventBus::Stats& before) {
  amuse::EventBus::Stats d;
  d.published = after.published - before.published;
  d.deliveries = after.deliveries - before.deliveries;
  d.local_deliveries = after.local_deliveries - before.local_deliveries;
  d.denied_publish = after.denied_publish - before.denied_publish;
  d.denied_subscribe = after.denied_subscribe - before.denied_subscribe;
  d.encodes = after.encodes - before.encodes;
  d.encode_reuses = after.encode_reuses - before.encode_reuses;
  d.events_shed = after.events_shed - before.events_shed;
  return d;
}

void check_bus_invariants(const amuse::EventBus::Stats& delta,
                          std::uint64_t expected_pairs, Measurement& m) {
  auto fail = [&](const std::string& what, std::uint64_t got,
                  std::uint64_t want) {
    m.violations.push_back("bus invariant " + what + ": " +
                           std::to_string(got) + " != " +
                           std::to_string(want));
    std::uint64_t diff = got > want ? got - want : want - got;
    m.failed_pairs += std::max<std::uint64_t>(diff, 1);
  };
  if (delta.encodes != delta.published) {
    fail("encodes == published", delta.encodes, delta.published);
  }
  if (delta.deliveries != expected_pairs) {
    fail("deliveries == expected pairs", delta.deliveries, expected_pairs);
  }
  if (delta.events_shed != 0) fail("events_shed == 0", delta.events_shed, 0);
  if (delta.denied_publish != 0 || delta.denied_subscribe != 0) {
    fail("no denied operation", delta.denied_publish + delta.denied_subscribe,
         0);
  }
}

// ---- Oracle

Oracle::Oracle(int publishers, int subscribers)
    : streams_(static_cast<std::size_t>(publishers)),
      last_seq_(static_cast<std::size_t>(subscribers),
                std::vector<std::uint32_t>(
                    static_cast<std::size_t>(publishers) * 2, 0)),
      last_key_(static_cast<std::size_t>(subscribers), ~0ULL) {}

std::uint32_t Oracle::expect(int pub, std::int64_t t_due,
                             std::uint64_t members,
                             std::uint64_t alarm_members,
                             std::uint32_t invocations, bool timed) {
  Stream& st = streams_[static_cast<std::size_t>(pub)];
  auto pseq = static_cast<std::uint32_t>(st.base + st.records.size());
  Record r;
  r.t_due = t_due;
  r.expect = members;
  r.alarm_expect = alarm_members;
  r.remaining = static_cast<std::uint32_t>(std::popcount(members) +
                                           std::popcount(alarm_members));
  r.timed = timed;
  st.records.push_back(r);
  outstanding_ += r.remaining;
  expected_pairs_ += r.remaining;
  expected_invocations_ += invocations;
  return pseq;
}

void Oracle::on_invocation(int member, const amuse::Event& e,
                           std::int64_t now) {
  ++invocations_;
  std::int64_t pub = e.get_int("pub", -1);
  std::int64_t pseq = e.get_int("pseq", -1);
  if (pub < 0 || static_cast<std::size_t>(pub) >= streams_.size() ||
      pseq < 0) {
    ++unknown_;
    return;
  }
  Stream& st = streams_[static_cast<std::size_t>(pub)];
  if (static_cast<std::uint64_t>(pseq) >= st.base + st.records.size()) {
    ++unknown_;
    return;
  }
  bool derived = e.type().starts_with("alarm.");
  std::uint64_t key = event_key(static_cast<std::uint32_t>(pub),
                                static_cast<std::uint32_t>(pseq), derived);
  auto m = static_cast<std::size_t>(member);
  // BusClient runs every matched subscription's handler for one delivery
  // back to back: further invocations of the same dispatch are not a new
  // delivery (the invocation total catches a repeated dispatch).
  if (last_key_[m] == key) return;
  last_key_[m] = key;
  if (static_cast<std::uint64_t>(pseq) < st.base) {
    ++duplicates_;  // every expected delivery of it had already arrived
    return;
  }

  Record& r = st.records[static_cast<std::size_t>(pseq) - st.base];
  std::uint64_t bit = 1ULL << member;
  std::uint64_t& got = derived ? r.alarm_got : r.got;
  std::uint64_t want = derived ? r.alarm_expect : r.expect;
  if (got & bit) {
    ++duplicates_;
    return;
  }
  got |= bit;
  if (!(want & bit)) {
    ++unexpected_;
    return;
  }
  std::uint32_t& last =
      last_seq_[m][static_cast<std::size_t>(pub) * 2 + (derived ? 1 : 0)];
  if (static_cast<std::uint32_t>(pseq) + 1 <= last) ++reordered_;
  last = std::max(last, static_cast<std::uint32_t>(pseq) + 1);

  ++deliveries_;
  --outstanding_;
  if (r.timed && !derived) {
    latency_.add(static_cast<double>(now - r.t_due) / 1000.0);
  }
  if (--r.remaining == 0) {
    while (!st.records.empty() && st.records.front().remaining == 0) {
      st.records.pop_front();
      ++st.base;
    }
    if (on_complete_) on_complete_(static_cast<int>(pub));
  }
}

void Oracle::finish(Measurement& m) const {
  std::uint64_t missing = 0;
  for (const Stream& st : streams_) {
    for (const Record& r : st.records) {
      missing += static_cast<std::uint64_t>(
          std::popcount(r.expect & ~r.got) +
          std::popcount(r.alarm_expect & ~r.alarm_got));
    }
  }
  m.expected_pairs += expected_pairs_;
  auto add = [&](std::uint64_t n, const char* what) {
    if (n == 0) return;
    m.failed_pairs += n;
    m.violations.push_back(std::to_string(n) + " " + what);
  };
  add(missing, "expected deliveries missing");
  add(duplicates_, "duplicate deliveries");
  add(reordered_, "deliveries out of per-sender order");
  add(unexpected_, "deliveries no filter matched");
  add(unknown_, "deliveries of unknown events");
  std::uint64_t inv_diff = invocations_ > expected_invocations_
                               ? invocations_ - expected_invocations_
                               : expected_invocations_ - invocations_;
  add(inv_diff, "handler invocations off the matched-subscription count");
}

}  // namespace perfbench
