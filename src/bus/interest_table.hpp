// Interest tables: the filter tables the bus pushes to its members — one
// versioned, digest-checked stream per member. It carries the routing state
// a federated cell exports to its gateway links (Gryphon-style
// information-flow brokering; ROADMAP "Federated multi-cell routing") and,
// with quenching on, the Elvin-style quench table every other member
// suppresses unwanted publishes with (§VI).
//
// The bus keeps one InterestTable built from the subscription registry,
// grouped by owning member. Two kinds of view derive from it, both compacted
// by the Siena covering poset (compaction preserves matching exactly):
//
//  * export view per link — the *compacted union* of every filter whose
//    owner is not that link (split horizon: interests a gateway itself
//    injected never echo back over the same link). This is what crosses
//    the federation link: the union of downstream interests, collapsed by
//    the Siena covering poset, never one filter per subscription.
//  * cell view (kCellView) — the compacted union of every filter in the
//    cell, no split horizon, shared by every quench-enabled member: its
//    diff is computed once per change and broadcast.
//
// Each view is pushed as versioned diffs: incremental add/remove updates
// with a digest of the full table after the update, and a full-table
// resync when the peer reports divergence.
//
// The member side holds an InterestMirror — the state-stream mirror
// (bus/state_stream.hpp) over a FilterSet — that applies those updates and
// flags when it has lost sync so the member can request a resync: a
// rejoined incarnation can never route (or quench) on a stale table. A
// mirror carried across a re-join presents its digest at admission; the
// bus confirms it when it still names the member's view, and replaces it
// otherwise.
//
// OriginDedup is the companion loop/multipath guard: every routed event is
// stamped once, at its origin cell, with an immutable Origin{cell, epoch,
// seq} (pubsub/event.hpp); any bus that sees its own cell id — or an origin
// it has already routed — drops the event. That terminates federation
// loops and collapses multi-path duplicates without a mutable hop counter.
// Members run the same window over their deliveries to drop failover
// re-deliveries (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bus/messages.hpp"
#include "common/service_id.hpp"
#include "pubsub/filter_set.hpp"

namespace amuse {

/// The view key of the whole cell: no member owns the nil id, so its
/// split-horizon export excludes nothing.
inline constexpr ServiceId kCellView{};

class InterestTable {
 public:
  /// Replaces the table with the registry's current (owner → filters)
  /// grouping. Local bus-side subscriptions are owned by the bus id.
  void rebuild(std::map<ServiceId, std::vector<Filter>> by_owner);

  /// The compacted union of every filter whose owner is not `link` —
  /// what the cell advertises across that federation link (kCellView: the
  /// whole cell).
  [[nodiscard]] FilterSet export_for(ServiceId link) const;

  /// Diffs the link's export view against what was last pushed to it.
  /// Returns the versioned update to send (full on the first push,
  /// incremental after), or nullopt when the view is unchanged.
  [[nodiscard]] std::optional<InterestUpdate> refresh_link(ServiceId link);

  /// A full-table replacement for the link (resync / fresh incarnation).
  /// Always bumps a gateway link's version so the mirror adopts it. The
  /// shared cell view is computed here only the first time and never
  /// bumped — its other mirrors apply its diffs in sequence — so the
  /// caller keeps it current with refresh_link after every change.
  /// When `held` (the digest the peer presented at admission) names the
  /// view, the update is a confirm: it names the peer's table instead of
  /// re-sending it.
  [[nodiscard]] InterestUpdate full_update(ServiceId link,
                                           const Digest256& held = {});

  /// Forgets per-link push state (the link was purged).
  void drop_link(ServiceId link);

  [[nodiscard]] std::uint64_t link_version(ServiceId link) const;

 private:
  struct LinkState {
    std::uint64_t version = 0;
    FilterSet pushed;
  };

  std::map<ServiceId, std::vector<Filter>> by_owner_;
  std::unordered_map<ServiceId, LinkState> links_;
};

/// The member-side replica of the view the bus pushes to it.
class InterestMirror : public StreamMirror<FilterSet> {
 public:
  [[nodiscard]] Apply apply(const InterestUpdate& update);
  [[nodiscard]] const FilterSet& interests() const { return state(); }
};

/// Bounded first-arrival-wins window over origin stamps: one sequence
/// window per (cell, epoch) — the key must hold both, because two cells,
/// and two split-brain cores of one cell, count sequences independently.
class OriginDedup {
 public:
  explicit OriginDedup(std::size_t window_per_origin = 4096)
      : window_(window_per_origin) {}

  /// True when the stamp is new — record it and route/deliver the event.
  /// False for anything already seen, and for stamps that have fallen off
  /// the bounded window (counted as duplicates rather than risking a
  /// re-route).
  [[nodiscard]] bool admit(const Origin& origin);

  void clear() { origins_.clear(); }

 private:
  struct Window {
    std::unordered_set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;  // insertion order, for eviction
    std::uint64_t floor = 0;          // seqs below this are presumed seen
  };

  std::size_t window_;
  std::map<std::pair<ServiceId, std::uint64_t>, Window> origins_;
};

}  // namespace amuse
