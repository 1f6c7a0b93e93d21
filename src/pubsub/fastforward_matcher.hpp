// FastForwardMatcher — the dedicated matching engine the paper's C engine
// stands for (§IV): the per-attribute indexes of Siena's fast forwarding
// module (Carzaniga & Wolf, "Forwarding in a content-based network",
// SIGCOMM 2003), organised as an access-predicate index (the clustering
// scheme of Fabret et al., SIGMOD 2001).
//
// Each filter is filed under exactly one of its constraints, its *key*:
//   - the equality (numeric or string) or string-prefix constraint with the
//     fewest expected visits when the filter is added: its bucket's size
//     divided by the number of distinct keys its attribute holds at that
//     access (the equality map, or the one prefix length). A key every
//     event probes (the one event type a ward publishes) thus loses to any
//     selective key (a patient id, a bed prefix);
//   - else a numeric range bound, kept in a per-operator sorted array, so
//     an event value selects the satisfied bounds with one binary search;
//   - else the attribute's scan list (!=, string ranges, suffix, contains,
//     exists, bool/bytes equality);
//   - constraint-free filters sit in a match-everything list.
// Prefix keys are hashed per distinct prefix length on their attribute, so
// an event string probes one hash per length. Matching visits only the
// filters whose key the event satisfies; cost scales with the number of
// *filters whose key the event satisfies*, not the number of subscriptions.
//
// A filter is stored compiled, not as a Filter: one test per constraint,
// holding the attribute's slot, the operator and the constant already
// typed (a number, or the id of an interned string). Buckets hold the
// compiled filters themselves, so walking a bucket reads contiguous memory.
// match() resolves each event attribute to its slot once (Gryphon's
// one-lookup-per-attribute rule), with its numeric value and the id of its
// string, so a visit is an array index plus one comparison per test, with
// exactly the verdict Constraint::matches gives.
//
// Because each filter sits in exactly one place, an id comes out at most
// once without per-match counters, and removal erases one bucket entry.
// match() binds slots in member scratch, so one matcher serves one thread.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/matcher.hpp"

namespace amuse {

class FastForwardMatcher final : public Matcher {
 public:
  void add(SubId id, const Filter& filter) override;
  void remove(SubId id) override;
  void match(const Event& e, std::vector<SubId>& out) const override;
  [[nodiscard]] std::size_t size() const override { return live_; }
  [[nodiscard]] std::string name() const override { return "fastforward"; }

 private:
  enum class Access : std::uint8_t {
    kAll,     // constraint-free filter
    kEqNum,   // numeric equality
    kEqStr,   // string equality
    kPrefix,  // string prefix
    kRange,   // numeric <, <=, >, >=
    kScan,    // presence of the key constraint's attribute
  };

  /// The type family of a value: int and double are one.
  enum class Family : std::uint8_t { kNone, kNum, kBool, kStr, kBytes };

  /// One compiled constraint. An event value passes when its family is the
  /// constant's (any family for kExists) and `mask` has the bit of the
  /// order outcome between the two: 0 unordered (NaN), 1 less, 2 greater,
  /// 3 equal; prefix, suffix and contains test the text instead.
  struct Test {
    enum class Eval : std::uint8_t {
      kExists,      // any value
      kNumOrder,    // numbers and bools, by `num`
      kStrId,       // string == / !=, by interned id
      kStrOrder,    // string <, <=, >, >=, by text
      kBytesOrder,  // byte strings, by text
      kPrefix,
      kSuffix,
      kContains,
    };
    std::uint32_t slot = 0;  // the attribute's slot
    Op op = Op::kExists;
    Eval eval = Eval::kExists;
    Family family = Family::kNone;
    std::uint8_t mask = 0;
    union {
      double num = 0;     // kNum, kBool (as 0/1)
      std::uint32_t sid;  // kStr, kBytes: interned text id
    };
  };

  /// A filed filter: its id and the tests its key does not already
  /// guarantee (on a scan list, all of them); the first two inline, so a
  /// bucket walk rarely leaves the bucket's own memory.
  struct Entry {
    SubId id = 0;
    std::uint32_t size = 0;
    std::array<Test, 2> head{};
    std::vector<Test> rest;  // tests beyond the first two
    void push(const Test& t);
    template <typename F>
    bool all_of(F&& f) const;
  };
  using Bucket = std::vector<Entry>;

  /// Where a subscription is filed, and its key test (all but kAll).
  struct Filed {
    Access access = Access::kAll;
    bool live = false;      // false: no subscription holds this id
    std::uint32_t pos = 0;  // index in its bucket (all but kRange)
    Test key;
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using StringMap =
      std::unordered_map<std::string, T, StringHash, std::equal_to<>>;

  struct PrefixLevel {
    std::size_t length = 0;
    StringMap<Bucket> buckets;  // prefix of `length` chars → filters
  };

  struct Ranged {
    double bound;
    Entry entry;
  };

  struct AttrIndex {
    std::uint32_t slot = 0;
    std::uint32_t refs = 0;   // tests on this attribute
    std::uint32_t keyed = 0;  // filters keyed on it
    std::uint32_t by_id = 0;  // string == / != tests: bind the value's id
    std::unordered_map<double, Bucket> eq_num;
    std::unordered_map<std::uint32_t, Bucket> eq_str;  // by string id
    std::vector<PrefixLevel> prefixes;  // ascending length
    std::vector<Ranged> lt, le, gt, ge;  // each ascending by bound
    Bucket scan;
  };
  using AttrEntry = StringMap<AttrIndex>::value_type;

  struct Interned {
    std::uint32_t id = 0;
    std::uint32_t refs = 0;
  };

  /// One event attribute resolved for the current match.
  struct Binding {
    bool present = false;          // false: the event lacks it
    std::string_view text;         // a string or byte string's bytes
    double num = 0;                // numeric value, or a bool as 0/1
    std::uint32_t sid = 0;         // id of an interned string value, or 0
    Family family = Family::kNone;
  };

  /// Compiles `c`, taking references on its attribute and string.
  Test compile(const Constraint& c);
  /// Drops the references compile() took.
  void release(const Test& t);
  [[nodiscard]] bool passes(const Test& t, const Binding& b) const;
  /// The equality or prefix bucket `t` would be filed in under `access`
  /// (null while it does not exist), and its expected visits as its size
  /// and the number of distinct keys at that access.
  struct Load {
    Bucket* bucket = nullptr;
    std::size_t n = 0;
    std::size_t keys = 1;
  };
  [[nodiscard]] Load load(Access access, const Test& t);
  /// The bucket (not kRange) a filter keyed on `key` under `access` sits in;
  /// created on demand.
  Bucket& bucket_for(Access access, const Test& key);
  /// Takes `id`'s entry out of the index, keeping the others' positions.
  Entry unfile(SubId id, const Filed& filed);
  [[nodiscard]] AttrIndex& index_of(const Test& t) const {
    return by_slot_[t.slot]->second;
  }
  [[nodiscard]] const std::string& text(const Test& t) const {
    return *by_id_[t.sid];
  }
  static std::vector<Ranged>& range_array(AttrIndex& ai, Op op);

  std::vector<Filed> subs_;  // by SubId (dense, matcher.hpp)
  std::size_t live_ = 0;     // ids filed
  std::vector<Test> tests_;  // add() scratch
  StringMap<AttrIndex> attrs_;
  std::vector<AttrEntry*> by_slot_;  // slot → its attrs_ entry (stable)
  std::vector<std::uint32_t> free_slots_;
  StringMap<Interned> strings_;
  std::vector<const std::string*> by_id_{nullptr};  // id → text; 0 unused
  std::vector<std::uint32_t> free_ids_;
  Bucket all_;
  // match() scratch: each slot's binding, and the indexed attributes the
  // current event carries.
  mutable std::vector<Binding> bound_;
  mutable std::vector<const AttrIndex*> present_;
};

}  // namespace amuse
