// FilterSet: a canonical, digestable *set* of content filters — the value
// routing peers exchange (the filter tables the bus pushes to members:
// quench tables and inter-cell interest tables).
//
// Canonical form: filters sorted by wire encoding with duplicates removed,
// so two sets with the same effective members digest identically no matter
// which subscriptions produced them. compact() additionally collapses
// filters that are *covered* by another member of the set (Siena's
// covering poset: covers(f, g) ⇔ every event matching g matches f), which
// is what keeps the interest a cell exports across a federation link down
// to the union of downstream interests instead of one filter per
// downstream subscription.
#pragma once

#include <vector>

#include "common/sha256.hpp"
#include "pubsub/filter.hpp"

namespace amuse {

class FilterSet {
 public:
  FilterSet() = default;
  /// Canonicalises on construction (sort by encoding, dedupe).
  explicit FilterSet(std::vector<Filter> filters);

  /// Inserts one filter, keeping canonical order. No-op for duplicates;
  /// returns true when the set changed.
  bool insert(const Filter& f);
  /// Removes a filter by value; returns true when present.
  bool erase(const Filter& f);
  [[nodiscard]] bool contains(const Filter& f) const;

  /// Drops every filter covered by another member of the set. Equivalent
  /// filters (mutual covering) keep the canonically-smallest encoding.
  /// Matching semantics are preserved exactly: for any event, some filter
  /// in the compacted set matches iff some filter in the original did.
  void compact();

  /// The canonically ordered filters.
  [[nodiscard]] const std::vector<Filter>& filters() const { return filters_; }
  [[nodiscard]] std::size_t size() const { return filters_.size(); }
  [[nodiscard]] bool empty() const { return filters_.empty(); }

  /// True when any member filter matches the event.
  [[nodiscard]] bool matches_any(const Event& e) const;

  /// SHA-256 over the length-prefixed canonical encodings: the identity
  /// routing peers compare before acting on a table push.
  [[nodiscard]] Digest256 digest() const;

  /// The canonical wire encoding of one filter (the set's ordering key).
  [[nodiscard]] static Bytes encoding_of(const Filter& f);

  /// Filters in `next` but not in *this / in *this but not in `next` —
  /// the incremental update a versioned table push carries.
  [[nodiscard]] std::vector<Filter> added_in(const FilterSet& next) const;
  [[nodiscard]] std::vector<Filter> removed_in(const FilterSet& next) const;

  [[nodiscard]] bool operator==(const FilterSet& other) const;

 private:
  void canonicalise();

  // Filters and their encodings, kept aligned and sorted by encoding.
  std::vector<Filter> filters_;
  std::vector<Bytes> keys_;
};

}  // namespace amuse
