// Ablation A2: wall-clock matching cost of the three engines as the
// subscription count grows — the design choice behind replacing Siena's
// poset with the fast-forwarding matcher (§IV). Two populations:
//   - BM_Match: SMC-style filters pinning an event type or type prefix,
//     some with a numeric threshold;
//   - BM_MatchClinical: an alarm-console ward — every filter pins the same
//     event type, about five filters per patient key, one threshold each.
// The Siena poset stops at 10k: its O(n) covering tests per insert make a
// 100k build take minutes.
//
// google-benchmark; real CPU time, no simulation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "pubsub/brute_matcher.hpp"
#include "pubsub/fastforward_matcher.hpp"
#include "pubsub/siena_matcher.hpp"

namespace amuse {
namespace {

// A realistic SMC-ish filter population: most subscriptions pin an event
// type (or type prefix) and some add a numeric threshold.
void populate(Matcher& m, std::size_t n, Rng& rng) {
  static const char* kTypes[] = {
      "vitals.heartrate", "vitals.spo2", "vitals.temperature",
      "vitals.bloodpressure", "alarm.cardiac", "alarm.fall",
      "smc.member.new", "smc.member.purge", "control.threshold",
      "actuator.defib.fire"};
  for (SubId id = 1; id <= n; ++id) {
    Filter f;
    double roll = rng.uniform();
    if (roll < 0.5) {
      f.where("type", Op::kEq, kTypes[rng.bounded(10)]);
    } else if (roll < 0.7) {
      f.where("type", Op::kPrefix, rng.chance(0.5) ? "vitals." : "alarm.");
    } else {
      f.where("type", Op::kEq, kTypes[rng.bounded(4)]);
      f.where("value", rng.chance(0.5) ? Op::kGt : Op::kLt,
              static_cast<std::int64_t>(rng.uniform_int(40, 180)));
    }
    m.add(id, f);
  }
}

Event sample_event(Rng& rng) {
  static const char* kTypes[] = {"vitals.heartrate", "vitals.spo2",
                                 "alarm.cardiac", "control.threshold",
                                 "nomatch.type"};
  Event e(kTypes[rng.bounded(5)]);
  e.set("value", static_cast<std::int64_t>(rng.uniform_int(30, 200)));
  e.set("member", std::int64_t{12345});
  return e;
}

std::string patient_id(std::uint32_t p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "P%06u", p);
  return buf;
}

std::uint32_t clinical_patients(std::size_t n) {
  return static_cast<std::uint32_t>(std::max<std::size_t>(1, n / 5));
}

void populate_clinical(Matcher& m, std::size_t n, Rng& rng) {
  std::uint32_t patients = clinical_patients(n);
  for (SubId id = 1; id <= n; ++id) {
    Filter f = Filter::for_type("obs.vitals");
    f.where("patient", Op::kEq, patient_id(rng.bounded(patients)));
    if (rng.chance(0.55)) {
      f.where("hr", Op::kGt, rng.uniform_int(90, 150));
    } else {
      f.where("spo2", Op::kLt, rng.uniform_int(85, 95));
    }
    m.add(id, f);
  }
}

Event clinical_event(std::size_t n, Rng& rng) {
  Event e("obs.vitals");
  e.set("patient", patient_id(rng.bounded(clinical_patients(n))));
  e.set("hr", static_cast<std::int64_t>(rng.uniform_int(50, 160)));
  e.set("spo2", static_cast<std::int64_t>(rng.uniform_int(85, 100)));
  return e;
}

template <typename M, bool kClinical>
void match_loop(benchmark::State& state) {
  M matcher;
  Rng rng(42);
  auto n = static_cast<std::size_t>(state.range(0));
  if (kClinical) {
    populate_clinical(matcher, n, rng);
  } else {
    populate(matcher, n, rng);
  }
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) {
    events.push_back(kClinical ? clinical_event(n, rng) : sample_event(rng));
  }
  std::vector<SubId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(events[i++ & 63], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["subs"] = static_cast<double>(state.range(0));
}

template <typename M>
void BM_Match(benchmark::State& state) {
  match_loop<M, false>(state);
}

template <typename M>
void BM_MatchClinical(benchmark::State& state) {
  match_loop<M, true>(state);
}

BENCHMARK_TEMPLATE(BM_Match, BruteForceMatcher)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_Match, SienaMatcher)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_Match, FastForwardMatcher)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_MatchClinical, BruteForceMatcher)
    ->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_MatchClinical, SienaMatcher)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_MatchClinical, FastForwardMatcher)
    ->Arg(1000)->Arg(10000)->Arg(100000);

template <typename M>
void BM_Subscribe(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    M matcher;
    state.ResumeTiming();
    populate(matcher, static_cast<std::size_t>(state.range(0)), rng);
    benchmark::DoNotOptimize(&matcher);
  }
}

BENCHMARK_TEMPLATE(BM_Subscribe, BruteForceMatcher)->Arg(100)->Arg(1000);
BENCHMARK_TEMPLATE(BM_Subscribe, SienaMatcher)->Arg(100)->Arg(1000);
BENCHMARK_TEMPLATE(BM_Subscribe, FastForwardMatcher)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace amuse

BENCHMARK_MAIN();
