// DeliveryOracle: records ground truth on both sides of the bus and checks
// the paper's delivery guarantees (§III / §VI) after a torture run:
//
//   (a) no duplicate delivery — "exactly once ... as long as the component
//       remains a member";
//   (b) per-sender FIFO at every receiver — "events from a single sender
//       are delivered in the order they were published";
//   (c) no silent loss — every matching event published while a member was
//       admitted-and-never-since-purged is eventually delivered, OR the bus
//       recorded shedding it for that member under overload (DESIGN.md §9:
//       "accounted, never silent"). A missing delivery without a matching
//       shed record is a violation;
//   (d) quench/matching consistency — an event is handed to a member's
//       proxy exactly for the member's subscriptions that match it (the
//       oracle's brute-force Filter::matches is the specification the
//       engines are checked against);
//   (e) no stale delivery — a rejoined member must not receive backlog
//       queued for a previous incarnation ("purge destroys queued
//       events"): an event routed long before the receiving incarnation
//       joined can only arrive through leaked channel state.
//
// The HA failover harness (tests/torture/failover.cpp) additionally calls
// enable_ha_rules() / attach_promoted() / core_incident(), which extend
// the guarantees across a standby promotion (DESIGN.md §13):
//
//   (F1) exactly-once across promotion — one (sender, n) publish reaches a
//        member's subscription at most once over ALL its incarnations: the
//        promoted core's spool re-delivery must be swallowed by the
//        member-side (epoch, seq) dedup when the event was already seen;
//   (F2) per-sender FIFO across promotion — the per-sender publish order
//        stays strictly increasing across the re-home. Spool re-delivery
//        at admission is exempt from the regression check (re-delivering
//        an event the old core shed is a legal heal, not a reorder);
//   (F3) accounted failover loss — a member that re-homed (its admission
//        interval was closed by a new admission, not a purge) must receive
//        every pre-promotion candidate event, unless the bus recorded a
//        shed for that (member, event), a staleness-budget record for the
//        event (spool eviction / deposed-core route / step-down drain), or
//        the event was routed inside the repl-lag window just before a
//        core crash (the dead core could not have replicated it);
//   (F4) re-delivery is exempt from (e) — on_redeliver-tagged events may
//        legitimately arrive long after the receiving incarnation's join;
//   (F5) membership truth follows the promotion — after attach_promoted()
//        only the promoted bus's admissions/purges move the oracle's
//        intervals, so a member stranded on the dead incarnation can never
//        satisfy (F3) by "staying admitted" there. (This is the rule a
//        fence_epochs revert trips: stranded members miss the barrage.)
//
// Bus-side truth comes from a BusObserver; member-side truth from the
// harness's subscription handlers (on_member_delivery). All containers are
// ordered (std::map/std::set) so violation reports are deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bus/event_bus.hpp"

namespace amuse::torture {

class DeliveryOracle {
 public:
  struct Violation {
    std::string invariant;  // "duplicate-delivery", "fifo", ...
    std::string detail;
  };

  /// Justification ledger, filled by finish(): every (candidate member,
  /// publish) pair is attributed to EXACTLY ONE bucket, in priority order
  /// delivered > shed > staleness > repl-lag > purged > unreplicated >
  /// unsubscribed > exempt. `pairs` equals the sum of all buckets by
  /// construction — the directed overload test asserts that the shed and
  /// staleness ledgers compose: shedding under §9 budgets and spool
  /// eviction under §13 each justify their own losses, no pair needs two
  /// excuses and none goes silent.
  struct Tally {
    std::uint64_t pairs = 0;         // candidate (member, publish) pairs
    std::uint64_t delivered = 0;     // received at least once
    std::uint64_t shed = 0;          // §9 shed record for this exact pair
    std::uint64_t staleness = 0;     // §13 staleness-budget record
    std::uint64_t repl_lag = 0;      // routed inside a crash's lag window
    std::uint64_t purged = 0;        // interval closed by a purge
    std::uint64_t unreplicated = 0;  // admission never reached the replica
    std::uint64_t unsubscribed = 0;  // matching subscription dropped
    std::uint64_t exempt = 0;        // non-HA re-home / defensive paths
  };

  /// Installs the bus observer. `now` supplies the simulation clock (used
  /// to timestamp publishes for the stale-delivery check). The oracle must
  /// outlive the bus.
  void attach(EventBus& bus, std::function<TimePoint()> now);

  /// Switches on the cross-promotion rules F1–F5 (HA failover harness).
  void enable_ha_rules() { ha_mode_ = true; }

  /// Re-points membership truth at a promoted core's bus (F5). The old
  /// bus's observer stays installed — its publishes, deliveries and
  /// accounting taps still count (split brain: the deposed-to-be core
  /// keeps serving members until they fence over) — but its admissions
  /// and purges no longer move the intervals.
  void attach_promoted(EventBus& bus);

  /// Marks a core crash at `when`: publishes routed within the repl-lag
  /// slack before it may vanish without accounting — the dying core had
  /// no chance to replicate them (F3's bounded-staleness window).
  void core_incident(TimePoint when);

  /// Marks the replication stream severed (core crash or split brain).
  /// Admissions on the active core from here until attach_promoted() can
  /// never reach the standby's replica, so the promoted core legitimately
  /// does not know those members: F3's strong guarantee does not cover
  /// them (their later join to the promoted core is a fresh join, not a
  /// re-home). Deliveries they DO receive stay fully checked.
  void repl_severed() { severed_ = true; }

  /// Called by the harness whenever a member (re-)joins, with the member's
  /// new join count.
  void on_member_joined(std::size_t member_idx, std::uint64_t incarnation,
                        TimePoint when);

  /// Called by the harness from every recorder subscription handler.
  /// `incarnation` is the member's join count at delivery time; `sub_tag`
  /// identifies the durable subscription the handler belongs to.
  void on_member_delivery(std::size_t member_idx, ServiceId member_id,
                          std::uint64_t incarnation, std::uint64_t sub_tag,
                          const Event& e);

  /// End-of-run check (after quiescence): lost deliveries. Online checks
  /// (duplicates, FIFO, quench consistency, duplicate/phantom publishes)
  /// have already been recorded as they happened.
  void finish();

  [[nodiscard]] const std::optional<Violation>& violation() const {
    return violation_;
  }
  /// Valid after finish() (empty if finish() bailed on a prior violation).
  [[nodiscard]] const Tally& tally() const { return tally_; }
  [[nodiscard]] std::uint64_t publishes() const { return publishes_.size(); }
  [[nodiscard]] std::uint64_t deliveries() const { return delivery_count_; }
  [[nodiscard]] std::uint64_t sheds() const { return shed_.size(); }

 private:
  struct Interval {
    std::uint64_t open_seq;
    std::uint64_t close_seq;  // UINT64_MAX while open
    // true: closed by a purge (queued events legally destroyed);
    // false + closed: closed by a re-admission (re-home) — F3 applies.
    bool purged = false;
    // Opened while the repl stream was severed: the standby's replica
    // cannot contain this admission, so F3 does not apply to it.
    bool unreplicated = false;
  };
  struct PublishRecord {
    std::uint64_t seq;        // global observer order
    std::uint64_t order;      // per-sender publish index (FIFO reference)
    TimePoint routed_at{};    // sim time the bus routed the event
    // Admitted members whose mirror matched at publish time, with the
    // matching local subscription ids (for the survived-to-end test).
    std::map<ServiceId, std::vector<std::uint64_t>> candidates;
  };

  void fail(std::string invariant, std::string detail);
  void attach_tagged(EventBus& bus, int tag);
  void bus_publish(const Event& e);
  void bus_deliver(int tag, ServiceId member, const Event& e,
                   std::span<const std::uint64_t> locals);
  [[nodiscard]] bool in_incident_window(TimePoint routed_at) const;

  std::uint64_t seq_ = 0;  // bumped on every observed bus action
  std::function<TimePoint()> now_;
  bool ha_mode_ = false;
  bool severed_ = false;  // repl stream down; cleared by attach_promoted()
  int active_tag_ = 0;  // the bus whose admissions define membership truth
  std::vector<std::pair<TimePoint, TimePoint>> incident_windows_;

  // (member_idx, incarnation) → sim time that join completed.
  std::map<std::pair<std::size_t, std::uint64_t>, TimePoint> join_time_;

  // Bus-side mirrors (the oracle's own bookkeeping, independent of the
  // registry implementation under test). mirror_ is membership TRUTH —
  // updated only by the active bus, used for candidate computation.
  std::map<ServiceId, std::map<std::uint64_t, Filter>> mirror_;
  std::map<ServiceId, std::vector<Interval>> intervals_;
  // Per-bus engine mirrors for rule (d): each bus's deliveries are checked
  // against ITS OWN subscription stream — during a split brain the deposed
  // core's registry legitimately diverges from the promoted one's (stale
  // members it has not purged yet), and that divergence is not a matching
  // bug.
  std::map<int, std::map<ServiceId, std::map<std::uint64_t, Filter>>>
      engine_mirror_;

  // (sender raw, n) → publish record; per-sender publish counters.
  std::map<std::pair<std::uint64_t, std::int64_t>, PublishRecord> publishes_;
  std::map<std::uint64_t, std::uint64_t> sender_order_;

  // Member-side records. Dup key: (member_idx, incarnation, sub_tag,
  // sender raw, n). FIFO state: last publish order per (member_idx,
  // incarnation, sub_tag, sender raw).
  std::set<std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::int64_t>> seen_;
  std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                      std::uint64_t>, std::uint64_t> fifo_;
  // (member raw, sender raw, n) delivered at least once — for (c).
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>> delivered_;
  // (member raw, sender raw, n) the bus recorded as shed for that member —
  // the only legal excuse for a missing delivery in (c).
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>> shed_;
  // HA bookkeeping (populated only when the failover harness attaches the
  // extra observer taps). redelivered_: (member raw, sender raw, n) the
  // promoted core re-offered from its spool (F2/F4 exemptions).
  // staleness_: (sender raw, n) the staleness budget accounted for (spool
  // eviction, deposed-core route, step-down drain) — an F3 excuse.
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::int64_t>>
      redelivered_;
  std::set<std::pair<std::uint64_t, std::int64_t>> staleness_;
  // Cross-incarnation exactly-once (F1) and FIFO watermarks (F2), keyed
  // without the incarnation on purpose.
  std::set<std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                      std::int64_t>> ha_seen_;
  std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t>,
           std::uint64_t> ha_fifo_;
  std::uint64_t delivery_count_ = 0;
  Tally tally_;

  std::optional<Violation> violation_;
};

}  // namespace amuse::torture
