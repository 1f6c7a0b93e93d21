// FastForwardMatcher — the dedicated matching engine the paper's C engine
// stands for (§IV): the per-attribute indexes of Siena's fast forwarding
// module (Carzaniga & Wolf, "Forwarding in a content-based network",
// SIGCOMM 2003), organised as an access-predicate index (the clustering
// scheme of Fabret et al., SIGMOD 2001).
//
// Each filter is filed under exactly one of its constraints, its *key*:
//   - the equality (numeric or string) or string-prefix constraint whose
//     bucket is smallest when the filter is added;
//   - else a numeric range bound, kept in a per-operator sorted array, so
//     an event value selects the satisfied bounds with one binary search;
//   - else the attribute's scan list (!=, string ranges, suffix, contains,
//     exists, bool/bytes equality);
//   - constraint-free filters sit in a match-everything list.
// Prefix keys are hashed per distinct prefix length on their attribute, so
// an event string probes one hash per length. Matching visits only the
// filters whose key the event satisfies and evaluates each whole; cost
// scales with the number of *filters whose key the event satisfies*, not
// the number of subscriptions. The key choice reads only bucket sizes,
// never attribute names, so a shared constraint (every filter pinning the
// same event type) ends up in one filter's key at most, and the selective
// one (a patient id) carries the rest.
//
// Because each filter sits in exactly one place, an id comes out at most
// once without per-match counters, and removal erases one bucket entry.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pubsub/matcher.hpp"

namespace amuse {

class FastForwardMatcher final : public Matcher {
 public:
  void add(SubId id, const Filter& filter) override;
  void remove(SubId id) override;
  void match(const Event& e, std::vector<SubId>& out) const override;
  [[nodiscard]] std::size_t size() const override { return subs_.size(); }
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

  struct Sub {
    SubId id = 0;
    Filter filter;
    Access access = Access::kAll;
    std::uint32_t key = 0;  // index of the key constraint in `filter`
    std::uint32_t pos = 0;  // index in its bucket (all but kRange)
  };

  using Bucket = std::vector<Sub*>;

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using StringBuckets =
      std::unordered_map<std::string, Bucket, StringHash, std::equal_to<>>;

  struct PrefixLevel {
    std::size_t length = 0;
    StringBuckets buckets;  // prefix of `length` chars → filters
  };

  struct Bound {
    double bound;
    Sub* sub;
  };

  struct AttrIndex {
    std::unordered_map<double, Bucket> eq_num;
    StringBuckets eq_str;
    std::vector<PrefixLevel> prefixes;  // ascending length
    std::vector<Bound> lt, le, gt, ge;  // each ascending by bound
    Bucket scan;
    std::size_t keyed = 0;  // filters keyed on this attribute
  };

  /// Chooses the key for `sub.filter` and files `sub` under it.
  void file(Sub& sub);
  /// Erases `sub` from the one place it is filed.
  void unfile(const Sub& sub);
  /// The existing equality or prefix bucket `c` would be filed in under
  /// `access`; nullptr when there is none yet.
  [[nodiscard]] const Bucket* find_bucket(Access access,
                                          const Constraint& c) const;
  static std::vector<Bound>& range_array(AttrIndex& ai, Op op);

  std::unordered_map<SubId, Sub> subs_;
  std::unordered_map<std::string, AttrIndex> attrs_;
  Bucket all_;
};

}  // namespace amuse
