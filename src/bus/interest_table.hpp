// Interest tables: the routing state a federated cell exports to its
// gateway links (Gryphon-style information-flow brokering; ROADMAP
// "Federated multi-cell routing").
//
// The bus keeps one InterestTable built from the subscription registry,
// grouped by owning member. Three views derive from it:
//
//  * quench view — every filter registered anywhere in the cell, the
//    existing Elvin-style quench table (uncompacted, so the digest stays
//    identical to the PR 2 canonicalisation).
//  * export view per link — the *compacted union* of every filter whose
//    owner is not that link (split horizon: interests a gateway itself
//    injected never echo back over the same link). This is what crosses
//    the federation link: the union of downstream interests, collapsed by
//    the Siena covering poset, never one filter per subscription.
//  * versioned diffs — each link gets incremental add/remove updates with
//    a digest of the full table after the update, and a full-table resync
//    when the peer reports divergence.
//
// The peer side holds an InterestMirror that applies those updates and
// flags when it has lost sync (version gap or digest mismatch) so the
// gateway can request a resync — a rejoined incarnation can never route
// on a stale table.
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

class InterestTable {
 public:
  /// Replaces the table with the registry's current (owner → filters)
  /// grouping. Local bus-side subscriptions are owned by the bus id.
  void rebuild(std::map<ServiceId, std::vector<Filter>> by_owner);

  /// The uncompacted union of every filter in the cell (quench view).
  [[nodiscard]] const FilterSet& all() const { return all_; }

  /// The compacted union of every filter whose owner is not `link` —
  /// what the cell advertises across that federation link.
  [[nodiscard]] FilterSet export_for(ServiceId link) const;

  /// Diffs the link's export view against what was last pushed to it.
  /// Returns the versioned update to send (full on the first push,
  /// incremental after), or nullopt when the view is unchanged.
  [[nodiscard]] std::optional<InterestUpdate> refresh_link(ServiceId link);

  /// A full-table replacement for the link (resync / fresh incarnation).
  /// Always bumps the link's version so the mirror adopts it.
  [[nodiscard]] InterestUpdate full_update(ServiceId link);

  /// Forgets per-link push state (the link was purged).
  void drop_link(ServiceId link);

  [[nodiscard]] std::uint64_t link_version(ServiceId link) const;

 private:
  struct LinkState {
    std::uint64_t version = 0;
    FilterSet pushed;
  };

  std::map<ServiceId, std::vector<Filter>> by_owner_;
  FilterSet all_;
  std::unordered_map<ServiceId, LinkState> links_;
};

/// The gateway-side replica of the export view the bus pushes to it.
class InterestMirror {
 public:
  enum class Apply {
    kApplied,       // table updated, interests() is current
    kResyncNeeded,  // version gap or digest mismatch — request a full table
  };

  [[nodiscard]] Apply apply(const InterestUpdate& update);

  /// True once a full table has been received and every increment applied
  /// cleanly since.
  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const FilterSet& interests() const { return set_; }

  /// Forgets everything (link lost — the next push must be full).
  void reset();

 private:
  bool synced_ = false;
  std::uint64_t version_ = 0;
  FilterSet set_;
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
