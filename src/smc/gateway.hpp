// FederationGateway: peer-to-peer cell composition (§I: "autonomous,
// self-managed cells must be composable … in peer-to-peer relationships").
//
// A gateway is a dual-homed service that is simultaneously an ordinary
// member of two cells (it discovers, joins, heartbeats and re-joins each
// like any other member) and forwards events from one cell into the other.
// Each direction is an independent gateway instance over the same two
// members. It is the one federation path: cells in one process federate
// the same way, over a SimNetwork.
//
// A gateway is a first-class routing peer, not a blind re-publisher: its
// members join with role "gateway" (kGatewayRole), so each cell's bus
// pushes it that cell's aggregated interest table (the compacted,
// split-horizon union of downstream subscriptions — bus/interest_table.hpp).
// Whenever the *destination* cell's table changes, the gateway reconciles
// its subscriptions in the *source* cell to exactly that set: only events
// somebody downstream actually wants ever cross the link (Gryphon-style
// information-flow brokering). Subscriptions are durable across source-cell
// re-joins (SmcMember re-registers them), and a destination-cell re-join
// always delivers a fresh full table (the bus pushes one on admission, and
// the mirror requests a resync on any divergence) — a rejoined incarnation
// can never route on a stale table.
//
// Loop termination and multi-path dedup ride the immutable Origin stamp
// each bus puts on routed events (DESIGN.md §11); the gateway forwards the
// stamp untouched in the kPublish header — the destination bus trusts it
// only because the gateway's member joined with the gateway role.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "smc/member.hpp"

namespace amuse {

class FederationGateway {
 public:
  /// Forwards `from` → `to`. Both members are owned by the caller and must
  /// outlive the gateway; the caller also start()s them. Both must be
  /// owned by the same executor: forward() republishes directly. Installs
  /// itself as `to`'s interest listener — a member may be the destination
  /// of at most one gateway.
  FederationGateway(SmcMember& from, SmcMember& to);
  /// Withdraws every subscription in `from` and the interest listener on
  /// `to`: both capture `this`.
  ~FederationGateway();

  FederationGateway(const FederationGateway&) = delete;
  FederationGateway& operator=(const FederationGateway&) = delete;

  /// Static export: events matching `filter` cross regardless of the
  /// destination cell's interest table (bootstrap / policy-pinned feeds).
  /// Durable across re-joins.
  AMUSE_AFFINITY(member_executor) void share(const Filter& filter);

  struct Stats {
    Counter forwarded;
    /// Events that originated in the destination cell: forwarding them
    /// back would only feed its origin dedup, so they never cross.
    Counter loopback_suppressed;
    /// Same delivery matched several of our subscriptions — forwarded once.
    Counter local_dups_suppressed;
    /// Destination out of range and its offline buffer full.
    Counter dropped_disconnected;
    /// Interest pushes applied to the source-cell subscription set.
    Counter interest_reconciles;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Interest-driven subscriptions currently registered in the source cell.
  [[nodiscard]] std::size_t interest_subscriptions() const {
    return interest_subs_.size();
  }

 private:
  /// Re-aims the source-cell subscription set at the destination cell's
  /// aggregated interest (re-compacted by the bus on every update).
  AMUSE_AFFINITY(member_executor) void reconcile(const FilterSet& interests);
  AMUSE_AFFINITY(member_executor) void forward(const Event& e);

  SmcMember& from_;
  SmcMember& to_;
  std::vector<std::uint64_t> static_subs_;
  // Canonical filter encoding → durable subscription id in `from_`.
  std::map<Bytes, std::uint64_t> interest_subs_;
  // Origin of the last forwarded event: handler invocations for one
  // delivery are consecutive, so one element dedups overlapping
  // subscriptions exactly.
  Origin last_forwarded_;
  Stats stats_;
};

}  // namespace amuse
