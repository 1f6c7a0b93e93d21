// Matching-engine tests: identical semantics across BruteForceMatcher,
// SienaMatcher (poset) and FastForwardMatcher (access-predicate index) —
// including randomised equivalence property tests, plus structure-specific
// invariants for the Siena poset and removal in the fast-forwarding index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "constraint_cases.hpp"
#include "pubsub/brute_matcher.hpp"
#include "pubsub/fastforward_matcher.hpp"
#include "pubsub/siena_matcher.hpp"

namespace amuse {
namespace {

std::unique_ptr<Matcher> make(const std::string& name) {
  if (name == "brute") return std::make_unique<BruteForceMatcher>();
  if (name == "siena") return std::make_unique<SienaMatcher>();
  return std::make_unique<FastForwardMatcher>();
}

std::vector<SubId> match_sorted(const Matcher& m, const Event& e) {
  std::vector<SubId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

class EveryMatcher : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryMatcher, BasicAddMatchRemove) {
  auto m = make(GetParam());
  Filter hr = Filter::for_type("vitals.heartrate");
  Filter all_vitals = Filter::for_type_prefix("vitals.");
  m->add(1, hr);
  m->add(2, all_vitals);
  EXPECT_EQ(m->size(), 2u);

  Event e("vitals.heartrate", {{"hr", 80}});
  EXPECT_EQ(match_sorted(*m, e), (std::vector<SubId>{1, 2}));

  Event spo2("vitals.spo2");
  EXPECT_EQ(match_sorted(*m, spo2), (std::vector<SubId>{2}));

  m->remove(2);
  EXPECT_EQ(m->size(), 1u);
  EXPECT_EQ(match_sorted(*m, spo2), (std::vector<SubId>{}));
  EXPECT_EQ(match_sorted(*m, e), (std::vector<SubId>{1}));
}

TEST_P(EveryMatcher, EmptyFilterMatchesEverything) {
  auto m = make(GetParam());
  m->add(7, Filter());
  EXPECT_EQ(match_sorted(*m, Event("anything")), (std::vector<SubId>{7}));
  Event empty;
  EXPECT_EQ(match_sorted(*m, empty), (std::vector<SubId>{7}));
}

TEST_P(EveryMatcher, ReAddReplacesFilter) {
  auto m = make(GetParam());
  m->add(1, Filter::for_type("a"));
  m->add(1, Filter::for_type("b"));
  EXPECT_EQ(m->size(), 1u);
  EXPECT_TRUE(match_sorted(*m, Event("a")).empty());
  EXPECT_EQ(match_sorted(*m, Event("b")), (std::vector<SubId>{1}));
}

TEST_P(EveryMatcher, RemoveUnknownIsNoop) {
  auto m = make(GetParam());
  m->add(1, Filter::for_type("a"));
  m->add(5, Filter::for_type("a"));
  // Never added: below the largest id, past it, and at the very end.
  m->remove(3);
  m->remove(99);
  m->remove(std::numeric_limits<SubId>::max());
  EXPECT_EQ(m->size(), 2u);
  EXPECT_EQ(match_sorted(*m, Event("a")), (std::vector<SubId>{1, 5}));
}

TEST_P(EveryMatcher, SizeTracksLiveIdsAcrossReAddsAndReuse) {
  auto m = make(GetParam());
  for (SubId id = 0; id < 3; ++id) m->add(id, Filter::for_type("a"));
  m->add(1, Filter::for_type("b"));  // re-add
  EXPECT_EQ(m->size(), 3u);
  m->remove(1);
  m->remove(1);
  EXPECT_EQ(m->size(), 2u);
  m->add(1, Filter::for_type("c"));  // the freed id, reused
  EXPECT_EQ(m->size(), 3u);
  EXPECT_EQ(match_sorted(*m, Event("a")), (std::vector<SubId>{0, 2}));
  EXPECT_EQ(match_sorted(*m, Event("c")), (std::vector<SubId>{1}));
  EXPECT_TRUE(match_sorted(*m, Event("b")).empty());
  for (SubId id = 0; id < 3; ++id) m->remove(id);
  EXPECT_EQ(m->size(), 0u);
  EXPECT_TRUE(match_sorted(*m, Event("a")).empty());
}

TEST_P(EveryMatcher, NumericRangeConstraints) {
  auto m = make(GetParam());
  Filter f;
  f.where("hr", Op::kGe, 60).where("hr", Op::kLe, 100);
  m->add(5, f);
  Event in("t");
  in.set("hr", 72);
  Event lo("t");
  lo.set("hr", 59.5);
  Event hi("t");
  hi.set("hr", 101);
  EXPECT_EQ(match_sorted(*m, in), (std::vector<SubId>{5}));
  EXPECT_TRUE(match_sorted(*m, lo).empty());
  EXPECT_TRUE(match_sorted(*m, hi).empty());
}

TEST_P(EveryMatcher, EveryOperatorWorks) {
  auto m = make(GetParam());
  SubId id = 1;
  auto add1 = [&](const char* attr, Op op, Value v) {
    Filter f;
    f.where(attr, op, std::move(v));
    m->add(id++, f);
  };
  add1("n", Op::kEq, 5);        // 1
  add1("n", Op::kNe, 5);        // 2
  add1("n", Op::kLt, 5);        // 3
  add1("n", Op::kLe, 5);        // 4
  add1("n", Op::kGt, 5);        // 5
  add1("n", Op::kGe, 5);        // 6
  add1("s", Op::kPrefix, "ab"); // 7
  add1("s", Op::kSuffix, "yz"); // 8
  add1("s", Op::kContains, "mid"); // 9
  add1("n", Op::kExists, Value());  // 10

  Event e;
  e.set("n", 5).set("s", "ab-mid-yz");
  EXPECT_EQ(match_sorted(*m, e), (std::vector<SubId>{1, 4, 6, 7, 8, 9, 10}));

  Event e2;
  e2.set("n", 4).set("s", "nope");
  EXPECT_EQ(match_sorted(*m, e2), (std::vector<SubId>{2, 3, 4, 10}));
}

TEST_P(EveryMatcher, StringOrderingConstraints) {
  auto m = make(GetParam());
  Filter f;
  f.where("w", Op::kGe, "m");
  m->add(1, f);
  Event lo;
  lo.set("w", "apple");
  Event hi;
  hi.set("w", "zebra");
  EXPECT_TRUE(match_sorted(*m, lo).empty());
  EXPECT_EQ(match_sorted(*m, hi), (std::vector<SubId>{1}));
}

TEST_P(EveryMatcher, MixedIntDoubleMatching) {
  auto m = make(GetParam());
  Filter f;
  f.where("x", Op::kEq, 3);  // int constraint
  m->add(1, f);
  Event e;
  e.set("x", 3.0);  // double event value
  EXPECT_EQ(match_sorted(*m, e), (std::vector<SubId>{1}));
}

TEST_P(EveryMatcher, EachIdAtMostOnce) {
  // One filter whose every constraint the event satisfies, on several
  // attributes and through every index kind.
  auto m = make(GetParam());
  Filter f = Filter::for_type("obs.vitals");
  f.where("patient", Op::kEq, "P0007")
      .where("bed", Op::kPrefix, "W07-")
      .where("bed", Op::kPrefix, "W07-B")
      .where("hr", Op::kGt, 10)
      .where("hr", Op::kLe, 200)
      .where("hr", Op::kEq, 90.0)
      .where("spo2", Op::kNe, 80)
      .where("spo2", Op::kExists);
  m->add(3, f);
  m->add(4, Filter());
  Event e("obs.vitals", {{"patient", "P0007"},
                         {"bed", "W07-B0007"},
                         {"hr", 90},
                         {"spo2", 97}});
  std::vector<SubId> out;
  m->match(e, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<SubId>{3, 4}));
}

INSTANTIATE_TEST_SUITE_P(Engines, EveryMatcher,
                         ::testing::Values("brute", "siena", "fastforward"));

// ---- Randomised equivalence: all three engines agree with each other
// under random subscription churn and random events.

class MatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

Filter random_filter(Rng& rng) {
  static const char* kAttrs[] = {"type", "hr", "spo2", "member", "note"};
  static const Op kOps[] = {Op::kEq,     Op::kNe,     Op::kLt,
                            Op::kLe,     Op::kGt,     Op::kGe,
                            Op::kPrefix, Op::kSuffix, Op::kContains,
                            Op::kExists};
  Filter f;
  int n = 1 + static_cast<int>(rng.bounded(3));
  for (int i = 0; i < n; ++i) {
    const char* attr = kAttrs[rng.bounded(5)];
    Op op = kOps[rng.bounded(10)];
    Value v;
    if (rng.chance(0.5)) {
      v = Value(static_cast<std::int64_t>(rng.uniform_int(0, 8)));
    } else {
      static const char* kStrs[] = {"a", "ab", "abc", "b", "vitals.",
                                    "vitals.hr"};
      v = Value(kStrs[rng.bounded(6)]);
    }
    f.where(attr, op, std::move(v));
  }
  return f;
}

Event random_event(Rng& rng) {
  static const char* kAttrs[] = {"type", "hr", "spo2", "member", "note"};
  Event e;
  int n = 1 + static_cast<int>(rng.bounded(4));
  for (int i = 0; i < n; ++i) {
    const char* attr = kAttrs[rng.bounded(5)];
    if (rng.chance(0.5)) {
      e.set(attr, static_cast<std::int64_t>(rng.uniform_int(0, 8)));
    } else {
      static const char* kStrs[] = {"a", "ab", "abc", "vitals.hr",
                                    "vitals.spo2"};
      e.set(attr, kStrs[rng.bounded(5)]);
    }
  }
  return e;
}

TEST_P(MatcherEquivalence, AllEnginesAgreeUnderChurn) {
  Rng rng(GetParam());
  BruteForceMatcher brute;
  SienaMatcher siena;
  FastForwardMatcher fast;
  std::vector<SubId> live;
  SubId next = 1;

  for (int round = 0; round < 300; ++round) {
    double roll = rng.uniform();
    if (roll < 0.5 || live.empty()) {
      Filter f = random_filter(rng);
      SubId id = next++;
      brute.add(id, f);
      siena.add(id, f);
      fast.add(id, f);
      live.push_back(id);
    } else if (roll < 0.65) {
      std::size_t idx = rng.bounded(static_cast<std::uint32_t>(live.size()));
      SubId id = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      brute.remove(id);
      siena.remove(id);
      fast.remove(id);
    } else {
      Event e = random_event(rng);
      auto expect = match_sorted(brute, e);
      EXPECT_EQ(match_sorted(siena, e), expect)
          << "siena diverged at round " << round << " on " << e.to_string();
      EXPECT_EQ(match_sorted(fast, e), expect)
          << "fastforward diverged at round " << round << " on "
          << e.to_string();
    }
    ASSERT_TRUE(siena.check_invariants()) << "round " << round;
  }
  EXPECT_EQ(brute.size(), live.size());
  EXPECT_EQ(siena.size(), live.size());
  EXPECT_EQ(fast.size(), live.size());
}

// ---- Clinical population: FastForwardMatcher agrees with the brute-force
// oracle on a ward-shaped population grown to 10k subscriptions under
// churn — a `type` equality every filter shares, a selective patient
// equality or bed prefix, and one threshold — plus the corners of its key
// choice: prefixes of several lengths on one attribute, int/double equality
// (3 vs 3.0), NaN values, filters of ranges, != or exists only, and re-adds
// of live ids with a different filter.

constexpr int kClinicalPatients = 2000;

std::string clinical_patient(int p) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "P%04d", p);
  return buf;
}

std::string clinical_bed(int p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "W%02d-B%04d", p % 20, p);
  return buf;
}

/// A numeric value as int or double, occasionally NaN.
Value clinical_number(Rng& rng, std::int64_t lo, std::int64_t hi) {
  if (rng.chance(0.005)) return Value(std::numeric_limits<double>::quiet_NaN());
  std::int64_t v = rng.uniform_int(lo, hi);
  return rng.chance(0.5) ? Value(v) : Value(static_cast<double>(v));
}

Filter clinical_filter(Rng& rng) {
  static const Op kRangeOps[] = {Op::kLt, Op::kLe, Op::kGt, Op::kGe};
  int p = static_cast<int>(rng.bounded(kClinicalPatients));
  std::vector<Constraint> cs;
  double roll = rng.uniform();
  if (roll < 0.80) {
    // Shared type + a selective key + one threshold.
    cs.push_back({"type", Op::kEq, Value(rng.chance(0.95) ? "obs.vitals"
                                                          : "obs.lab")});
    double pick = rng.uniform();
    if (pick < 0.75) {
      cs.push_back({"patient", Op::kEq, Value(clinical_patient(p))});
    } else if (pick < 0.95) {
      // Prefixes of several lengths on one attribute: "W07", "W07-",
      // "W07-B00", the whole bed.
      std::string bed = clinical_bed(p);
      static const std::size_t kLengths[] = {3, 4, 7, 9};
      cs.push_back({"bed", Op::kPrefix,
                    Value(bed.substr(0, kLengths[rng.bounded(4)]))});
    } else {
      // Int/double cross-type equality on a small numeric domain.
      cs.push_back({"unit", Op::kEq, clinical_number(rng, 0, 9)});
    }
    if (rng.chance(0.55)) {
      cs.push_back({"hr", Op::kGt, clinical_number(rng, 90, 150)});
    } else {
      cs.push_back({"spo2", Op::kLt, clinical_number(rng, 85, 95)});
    }
    // Both insertion orders: shared key first, or selective key first.
    if (rng.chance(0.5)) std::swap(cs[0], cs[1]);
  } else if (roll < 0.90) {
    // Ranges only.
    int n = 1 + static_cast<int>(rng.bounded(2));
    for (int i = 0; i < n; ++i) {
      cs.push_back({rng.chance(0.5) ? "hr" : "spo2", kRangeOps[rng.bounded(4)],
                    clinical_number(rng, 50, 160)});
    }
  } else if (roll < 0.97) {
    // != or exists only.
    if (rng.chance(0.5)) {
      cs.push_back({"unit", Op::kNe, clinical_number(rng, 0, 9)});
    } else {
      cs.push_back({rng.chance(0.5) ? "resp" : "patient", Op::kExists, {}});
    }
    if (rng.chance(0.3)) cs.push_back({"type", Op::kNe, Value("obs.lab")});
  } else if (roll < 0.99) {
    // A string-keyed attribute constrained by a number (never matches).
    cs.push_back({"patient", rng.chance(0.5) ? Op::kEq : Op::kPrefix,
                  Value(std::int64_t{p})});
  }  // else: constraint-free
  Filter f;
  for (Constraint& c : cs) f.where(std::move(c.attribute), c.op, c.value);
  return f;
}

Event clinical_event(Rng& rng) {
  int p = static_cast<int>(rng.bounded(kClinicalPatients));
  Event e(rng.chance(0.9) ? "obs.vitals" : "obs.lab");
  if (rng.chance(0.95)) e.set("patient", clinical_patient(p));
  if (rng.chance(0.9)) e.set("bed", clinical_bed(rng.chance(0.9) ? p : p + 1));
  if (rng.chance(0.9)) e.set("hr", clinical_number(rng, 50, 160));
  if (rng.chance(0.9)) e.set("spo2", clinical_number(rng, 80, 100));
  if (rng.chance(0.5)) e.set("unit", clinical_number(rng, 0, 9));
  if (rng.chance(0.3)) e.set("resp", rng.uniform_int(8, 30));
  return e;
}

TEST_P(MatcherEquivalence, ClinicalPopulationAgreesTo10k) {
  Rng rng(GetParam());
  BruteForceMatcher brute;
  FastForwardMatcher fast;
  std::vector<SubId> live;
  SubId next = 1;
  std::size_t checks = 0;

  auto check = [&](const Event& e) {
    ++checks;
    std::vector<SubId> got;
    fast.match(e, got);
    std::sort(got.begin(), got.end());
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << "duplicate id for " << e.to_string();
    ASSERT_EQ(got, match_sorted(brute, e))
        << "fastforward diverged with " << live.size() << " subscriptions on "
        << e.to_string();
  };

  while (live.size() < 10'000) {
    double roll = rng.uniform();
    if (roll < 0.70 || live.empty()) {
      Filter f = clinical_filter(rng);
      brute.add(next, f);
      fast.add(next, f);
      live.push_back(next++);
    } else if (roll < 0.82) {
      std::size_t idx = rng.bounded(static_cast<std::uint32_t>(live.size()));
      SubId id = live[idx];
      live[idx] = live.back();
      live.pop_back();
      brute.remove(id);
      fast.remove(id);
    } else if (roll < 0.95) {
      // Re-add a live id with a different filter.
      SubId id = live[rng.bounded(static_cast<std::uint32_t>(live.size()))];
      Filter f = clinical_filter(rng);
      brute.add(id, f);
      fast.add(id, f);
    } else {
      check(clinical_event(rng));
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(fast.size(), live.size());
  }
  for (int i = 0; i < 200; ++i) {
    check(clinical_event(rng));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(checks, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ---- Siena poset structure.

TEST(SienaPoset, GeneralFiltersBecomeAncestors) {
  SienaMatcher m;
  Filter any;                                  // covers everything
  Filter vitals = Filter::for_type_prefix("vitals.");
  Filter hr = Filter::for_type("vitals.heartrate");
  m.add(3, hr);
  m.add(2, vitals);
  m.add(1, any);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.root_count(), 1u);  // `any` covers the rest
}

TEST(SienaPoset, RemovalSplicesChildren) {
  SienaMatcher m;
  Filter any;
  Filter vitals = Filter::for_type_prefix("vitals.");
  Filter hr = Filter::for_type("vitals.heartrate");
  m.add(1, any);
  m.add(2, vitals);
  m.add(3, hr);
  m.remove(2);  // middle of the chain
  EXPECT_TRUE(m.check_invariants());
  Event e("vitals.heartrate");
  std::vector<SubId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<SubId>{1, 3}));
}

TEST(SienaPoset, RemovingRootPromotesChildren) {
  SienaMatcher m;
  Filter any;
  Filter a = Filter::for_type("a");
  Filter b = Filter::for_type("b");
  m.add(1, any);
  m.add(2, a);
  m.add(3, b);
  EXPECT_EQ(m.root_count(), 1u);
  m.remove(1);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.root_count(), 2u);
  EXPECT_EQ(match_sorted(m, Event("a")), (std::vector<SubId>{2}));
}

TEST(SienaPoset, PruningSkipsCoveredSubtrees) {
  // Matching an event that fails the root filter must not visit children —
  // observable as a correct (empty) result even with deep chains.
  SienaMatcher m;
  Filter broad;
  broad.where("x", Op::kGt, 0);
  Filter mid;
  mid.where("x", Op::kGt, 10);
  Filter tight;
  tight.where("x", Op::kGt, 100);
  m.add(1, broad);
  m.add(2, mid);
  m.add(3, tight);
  Event neg;
  neg.set("x", -5);
  EXPECT_TRUE(match_sorted(m, neg).empty());
  Event fifty;
  fifty.set("x", 50);
  EXPECT_EQ(match_sorted(m, fifty), (std::vector<SubId>{1, 2}));
}

TEST(FastForward, RemovalLeavesNoTrace) {
  FastForwardMatcher m;
  BruteForceMatcher brute;
  auto add = [&](SubId id, const Filter& f) {
    m.add(id, f);
    brute.add(id, f);
  };
  // Every index kind: string and numeric equality, prefixes, ranges, the
  // scan list and the match-everything list.
  for (SubId id = 1; id <= 100; ++id) {
    std::string t = "t" + std::to_string(id);
    int n = static_cast<int>(id);
    switch (id % 5) {
      case 0: add(id, Filter::for_type(t)); break;
      case 1: add(id, Filter::for_type_prefix(t)); break;
      case 2: add(id, Filter().where("n", Op::kEq, n)); break;
      case 3: add(id, Filter().where("n", Op::kLt, n)); break;
      default: add(id, id == 99 ? Filter() : Filter().where("n", Op::kNe, 0));
    }
  }
  // Keep one id in nine, so survivors of every kind remain.
  for (SubId id = 1; id <= 100; ++id) {
    if (id % 9 != 0) {
      m.remove(id);
      brute.remove(id);
    }
  }
  EXPECT_EQ(m.size(), 11u);
  Event t5("t5");
  t5.set("n", 5);
  EXPECT_EQ(match_sorted(m, t5), (std::vector<SubId>{9, 18, 54, 63, 99}));
  EXPECT_EQ(match_sorted(m, Event("t11")), (std::vector<SubId>{99}));
  EXPECT_EQ(match_sorted(m, Event("t90")), (std::vector<SubId>{90, 99}));
  EXPECT_EQ(match_sorted(m, Event("t36x")), (std::vector<SubId>{36, 99}));

  // Interleaved remove/add keeps agreement with brute force; ids are
  // reused so a stale index entry would resurface.
  Rng rng(5);
  for (int round = 0; round < 2000; ++round) {
    SubId id = 1 + rng.bounded(60);
    if (rng.chance(0.5)) {
      m.remove(id);
      brute.remove(id);
    } else {
      Filter f;
      switch (rng.bounded(4)) {
        case 0:
          f.where("type", Op::kEq, "t" + std::to_string(rng.bounded(6)));
          break;
        case 1:
          f.where("type", Op::kPrefix, rng.chance(0.5) ? "t" : "t1");
          break;
        case 2: f.where("n", Op::kGe, static_cast<int>(rng.bounded(6))); break;
        default: f.where("n", Op::kExists); break;
      }
      add(id, f);
    }
    Event e("t" + std::to_string(rng.bounded(12)));
    e.set("n", static_cast<int>(rng.bounded(6)));
    ASSERT_EQ(match_sorted(m, e), match_sorted(brute, e)) << "round " << round;
    ASSERT_EQ(m.size(), brute.size());
  }
  for (SubId id = 1; id <= 100; ++id) m.remove(id);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(match_sorted(m, t5).empty());
}

// Every Op × constant × event value (tests/constraint_cases.hpp): the
// compiled test gives Constraint::matches's verdict, both when the case is
// the filter's only constraint (its key, a range bound or the scan list)
// and when it sits behind a string-equality key as a plain test.
TEST(FastForward, CompiledTestsGiveConstraintVerdicts) {
  const std::vector<Value> values = cases::constraint_values();
  FastForwardMatcher m;
  struct Case {
    Op op;
    const Value* constant;
  };
  std::vector<Case> table;
  for (Op op : cases::kOps) {
    for (const Value& c : values) {
      SubId id = 2 * table.size();
      m.add(id, cases::alone(op, c));
      m.add(id + 1, cases::behind_key(op, c));
      table.push_back({op, &c});
    }
  }
  for (const Value& v : cases::event_values()) {
    std::vector<SubId> got = match_sorted(m, cases::event_with(v));
    for (std::size_t i = 0; i < table.size(); ++i) {
      const Case& c = table[i];
      Constraint constraint{cases::kAttr, c.op, *c.constant};
      bool want = constraint.matches(v);
      for (SubId id : {SubId{2 * i}, SubId{2 * i + 1}}) {
        EXPECT_EQ(std::binary_search(got.begin(), got.end(), id), want)
            << constraint.to_string() << " against " << v.to_string()
            << (id % 2 ? " behind a key" : " alone");
      }
    }
  }
}

}  // namespace
}  // namespace amuse
